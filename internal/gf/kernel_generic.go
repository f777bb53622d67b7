//go:build !amd64 || purego

package gf

// useVector is false where no vector kernel is built: the pure-Go bodies
// are the only ones, and the stubs below are never reached.
var useVector = false

func dotRowAVX2(tab *nibTab, srcs [][]byte, dst []byte, off, n int, acc bool) {
	panic("gf: no vector kernel in this build")
}

func dotRow4AVX2(tab *[4]nibTab, srcs [][]byte, dsts *[4][]byte, off, n int) {
	panic("gf: no vector kernel in this build")
}

func xorAVX2(srcs [][]byte, dst []byte, off, n int) {
	panic("gf: no vector kernel in this build")
}
