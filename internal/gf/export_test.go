package gf

// The body switch, for the external tests that drive the codecs on both
// bodies (golden_test.go, fuzz_test.go).
var (
	Bodies  = bodies
	SetBody = setBody
)
