//go:build race

package refine

const raceEnabled = true
