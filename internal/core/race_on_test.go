//go:build race

package core_test

// raceEnabled reports whether the race detector instruments this build;
// the allocation ceilings skip under it.
const raceEnabled = true
