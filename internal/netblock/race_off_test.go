//go:build !race

package netblock

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
