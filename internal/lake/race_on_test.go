//go:build race

package lake

const raceEnabled = true
