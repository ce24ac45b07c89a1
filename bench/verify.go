package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	rbcast "repro"
	"repro/internal/scenarios"
)

// resultHash is scenarios.ResultHash in raw form.
func resultHash(res rbcast.Result) (digest, error) {
	var d digest
	h, err := scenarios.ResultHash(res)
	if err != nil {
		return d, err
	}
	_, err = hex.Decode(d[:], []byte(h))
	return d, err
}

var (
	resultKey = []byte(`"result":`)
	wallKey   = []byte(`,"wall_ns":`)
)

// cutResult returns the "result" member of a response object whose result
// is its last member: a /v1/run body or a fresh /v1/sweep element line.
func cutResult(obj []byte) ([]byte, bool) {
	obj = bytes.TrimSuffix(obj, []byte("\n"))
	i := bytes.Index(obj, resultKey)
	if i < 0 || len(obj) < 2 || obj[len(obj)-1] != '}' {
		return nil, false
	}
	return obj[i+len(resultKey) : len(obj)-1], true
}

// wireDigest hashes a Result exactly as the server encoded it, minus the
// one nondeterministic member (metrics.wall_ns). The server and
// scenarios.ResultHash both encode with json.Marshal, so for a faithful
// body this equals ResultHash without decoding 50 KB of JSON per request.
func wireDigest(raw []byte) digest {
	h := sha256.New()
	if i := bytes.LastIndex(raw, wallKey); i >= 0 {
		j := i + len(wallKey)
		for j < len(raw) && raw[j] >= '0' && raw[j] <= '9' {
			j++
		}
		h.Write(raw[:i])
		raw = raw[j:]
	}
	h.Write(raw)
	var d digest
	h.Sum(d[:0])
	return d
}

// verify checks an encoded Result against its expected hash. The wire
// digest settles the common case; anything else is decoded and hashed
// canonically, so an encoding that differs only in layout still passes
// and a real mismatch reports both hashes.
func verify(raw []byte, want digest) error {
	if wireDigest(raw) == want {
		return nil
	}
	var res rbcast.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("undecodable result: %v", err)
	}
	got, err := resultHash(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("result hash %x, want %x", got[:6], want[:6])
	}
	return nil
}
