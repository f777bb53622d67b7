//go:build race

package netblock

// raceEnabled reports whether the race detector is compiled in; the
// allocation-contract tests skip under it (the instrumented allocator
// inflates the byte counts being bounded).
const raceEnabled = true
