//go:build race

package rbcast_test

func init() { raceEnabled = true }
