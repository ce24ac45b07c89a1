package rbcast_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	rbcast "repro"
	"repro/internal/scenarios"
)

// checkPacked requires both byte identities the packed form promises:
// AppendJSON renders exactly json.Marshal(res), and so does the unpacked
// Result.
func checkPacked(t *testing.T, res rbcast.Result) {
	t.Helper()
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	p := res.Pack()
	got, err := p.AppendJSON(nil)
	if err != nil {
		t.Fatalf("AppendJSON: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", clip(got), clip(want))
	}
	back, err := json.Marshal(p.Result())
	if err != nil {
		t.Fatalf("json.Marshal(Result()): %v", err)
	}
	if !bytes.Equal(back, want) {
		t.Fatalf("json.Marshal(Result()) differs from json.Marshal:\n got %s\nwant %s", clip(back), clip(want))
	}
}

// clip shortens a failure message's JSON to its head.
func clip(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "…"
	}
	return string(b)
}

// sweepGrids are the two canonical sweep grids of
// internal/scenarios.SweepGrids, which this package's tests cannot import.
func sweepGrids() []rbcast.SweepSpec {
	crashRounds := make([]int, 24)
	for i := range crashRounds {
		crashRounds[i] = i + 1
	}
	return []rbcast.SweepSpec{
		{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 40, Height: 30, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Ts: []int{0, 1, 2}, CrashRounds: crashRounds},
		},
		{
			Base: rbcast.Job{
				Config: rbcast.Config{Width: 32, Height: 24, Radius: 2, Protocol: rbcast.ProtocolCPA, T: 2, Value: 1},
				Plan:   rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyCrash},
			},
			Axes: rbcast.SweepAxes{Seeds: []int64{1, 2}, CrashRounds: crashRounds[:16]},
		},
	}
}

func TestPackedResultMatchesJSON(t *testing.T) {
	t.Run("matrix", func(t *testing.T) {
		for _, sc := range scenarios.Matrix() {
			sc := sc
			t.Run(sc.Name, func(t *testing.T) {
				res, err := rbcast.Run(sc.Config, sc.Plan)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				checkPacked(t, res)
			})
		}
	})
	t.Run("sweep-grids", func(t *testing.T) {
		for _, spec := range sweepGrids() {
			results, _, err := rbcast.RunSweep(spec, rbcast.BatchOptions{Workers: 2})
			if err != nil {
				t.Fatalf("RunSweep: %v", err)
			}
			for i, br := range results {
				if br.Err != nil {
					t.Fatalf("element %d: %v", i, br.Err)
				}
				checkPacked(t, br.Result)
			}
		}
	})
	t.Run("traced", func(t *testing.T) {
		res, err := rbcast.Run(rbcast.Config{Width: 9, Height: 9, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 1, Value: 1, Trace: true},
			rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategyLiar})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(res.Trace) == 0 {
			t.Fatal("traced run recorded no trace")
		}
		checkPacked(t, res)
	})
	t.Run("deadline-partial", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		res, err := rbcast.RunContext(ctx, rbcast.Config{Width: 16, Height: 10, Radius: 1, Protocol: rbcast.ProtocolBV4, T: 2, Value: 1},
			rbcast.FaultPlan{Placement: rbcast.PlaceGreedyBand, Strategy: rbcast.StrategySilent})
		if !errors.Is(err, rbcast.ErrDeadline) {
			t.Fatalf("want a deadline partial, got err %v", err)
		}
		checkPacked(t, res)
	})
	t.Run("zero", func(t *testing.T) { checkPacked(t, rbcast.Result{}) })
	t.Run("empty-decisions", func(t *testing.T) {
		checkPacked(t, rbcast.Result{Decisions: map[rbcast.Node]rbcast.Decision{}, Honest: 3})
	})
	t.Run("hand-built", func(t *testing.T) {
		d := rbcast.Decision{Value: 1, Decided: true, Round: 4}
		for name, keys := range map[string][]rbcast.Node{
			"sparse":          {{0, 0}, {5, 7}, {10, 2}, {2, 100}},
			"negative":        {{-1, 0}, {-10, -2}, {0, -1}, {3, 3}, {-1, -1}},
			"negative-box":    {{-1, -1}, {-1, 0}, {-1, 1}, {0, -1}, {0, 0}, {0, 1}},
			"non-rectangular": {{0, 0}, {0, 1}, {1, 0}, {2, 2}},
			"wide-box": func() []rbcast.Node {
				var ns []rbcast.Node
				for x := -12; x <= 12; x++ {
					for y := 8; y <= 11; y++ {
						ns = append(ns, rbcast.Node{X: x, Y: y})
					}
				}
				return ns
			}(),
			"extremes": {{-1 << 63, 1<<63 - 1}, {1<<63 - 1, -1 << 63}, {0, 0}},
		} {
			res := rbcast.Result{
				Honest: 4, Correct: 2, Wrong: -1, Rounds: 9, Quiesced: true,
				Decisions: make(map[rbcast.Node]rbcast.Decision),
				Faulty:    []rbcast.Node{{-3, 4}, {1 << 40, 0}},
				Metrics: rbcast.Metrics{Commits: 2, Wall: -5,
					PerRound: []rbcast.RoundMetrics{{}, {Broadcasts: 1}, {Commits: 1 << 50}}},
			}
			for i, n := range keys {
				if i%2 == 0 {
					res.Decisions[n] = d
				} else {
					res.Decisions[n] = rbcast.Decision{Round: -i}
				}
			}
			t.Run(name, func(t *testing.T) { checkPacked(t, res) })
		}
	})
}

// TestPackedResultRendersEveryField sets every field of Result and of the
// types nested in it to a non-zero value, so a field added to them but not
// to AppendJSON fails byte identity here. Trace is left out: it is
// rendered by json.Marshal, which covers its fields by construction.
func TestPackedResultRendersEveryField(t *testing.T) {
	var res rbcast.Result
	fillNonZero(reflect.ValueOf(&res).Elem())
	res.Trace = nil
	checkPacked(t, res)
}

// fillNonZero sets v, recursively, to a non-zero value: two elements per
// slice, one entry per map.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i))
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillNonZero(s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(key)
		fillNonZero(val)
		m.SetMapIndex(key, val)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillNonZero(p.Elem())
		v.Set(p)
	}
}

// TestPackedAppendJSONAllocs gates the render path: an untraced torus
// Result renders into a buffer with room without allocating.
func TestPackedAppendJSONAllocs(t *testing.T) {
	res, err := rbcast.Run(rbcast.Config{Width: 40, Height: 30, Radius: 1, Protocol: rbcast.ProtocolFlood, Value: 1},
		rbcast.FaultPlan{Placement: rbcast.PlaceBand, Strategy: rbcast.StrategyCrash, CrashRound: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	p := res.Pack()
	buf, err := p.AppendJSON(nil)
	if err != nil {
		t.Fatalf("AppendJSON: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = p.AppendJSON(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendJSON allocates %.0f times per render, want 0", allocs)
	}
}

// fuzzReader draws integers from fuzz input, yielding zeros once it runs
// dry.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// int draws a small value most of the time and a full 64-bit one when the
// selector byte says so, so extreme counters and coordinates are covered.
func (r *fuzzReader) int() int {
	sel := r.byte()
	if sel < 0xf0 {
		return int(sel) - 0x40
	}
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return int(binary.LittleEndian.Uint64(b[:]))
}

// fuzzResult builds a Result from fuzz input: arbitrary counters, faulty
// lists and per-round rows, and a Decisions key set that is either a
// filled box (the torus shape) or arbitrary keys.
func fuzzResult(data []byte) rbcast.Result {
	r := &fuzzReader{data: data}
	res := rbcast.Result{
		Honest: r.int(), Correct: r.int(), Wrong: r.int(), Undecided: r.int(),
		Faults: r.int(), MaxFaultsPerNbd: r.int(), Rounds: r.int(),
		Broadcasts: r.int(), Deliveries: r.int(), Quiesced: r.byte()&1 == 1,
	}
	res.Metrics.EvidenceEvals, res.Metrics.Commits, res.Metrics.Wall = r.int(), r.int(), time.Duration(r.int())
	for i := int(r.byte() % 8); i > 0; i-- {
		res.Metrics.PerRound = append(res.Metrics.PerRound,
			rbcast.RoundMetrics{Broadcasts: r.int(), Deliveries: r.int(), EvidenceEvals: r.int(), Commits: r.int()})
	}
	for i := int(r.byte() % 4); i > 0; i-- {
		res.Faulty = append(res.Faulty, rbcast.Node{X: r.int(), Y: r.int()})
	}
	decision := func() rbcast.Decision {
		return rbcast.Decision{Value: r.byte(), Decided: r.byte()&1 == 1, Round: r.int()}
	}
	switch shape := r.byte(); {
	case shape < 0x80:
		x0, y0 := r.int(), r.int()
		w, h := int(r.byte()%24)+1, int(r.byte()%24)+1
		res.Decisions = make(map[rbcast.Node]rbcast.Decision, w*h)
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				res.Decisions[rbcast.Node{X: x0 + x, Y: y0 + y}] = decision()
			}
		}
	case shape < 0xf0:
		res.Decisions = make(map[rbcast.Node]rbcast.Decision)
		for i := int(r.byte() % 64); i > 0; i-- {
			res.Decisions[rbcast.Node{X: r.int(), Y: r.int()}] = decision()
		}
	}
	return res
}

// FuzzPackedResultJSON checks both byte identities over random Results.
func FuzzPackedResultJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x01\x0b\x0c\x0d\x03\x41\x42\x43\x44\x02\x40\x40\x50\x50\x10\x30\x05\x04"))
	f.Add([]byte("\xff\x00\x00\x00\x00\x00\x00\x00\x80\x02\x03\x00\x00\x00\x01\x00\x00\x00\x00\x81\x20\x40\x44\x41\x43"))
	f.Add(bytes.Repeat([]byte{0xf5, 0x9c}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPacked(t, fuzzResult(data))
	})
}
