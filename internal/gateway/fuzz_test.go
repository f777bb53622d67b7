package gateway

import (
	"regexp"
	"strings"
	"testing"
)

// rangeSpec is the only byte-range spec the gateway serves: one range,
// positions of digits only (RFC 7233 §2.1), at least one of them given.
var rangeSpec = regexp.MustCompile(`^[0-9]*-[0-9]*$`)

// FuzzParseRange throws arbitrary Range headers and object sizes at the
// gateway's parser: it never panics, a header it accepts is a single
// digits-only range, and a satisfiable window lies inside the object.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []struct {
		h    string
		size int64
	}{
		{"bytes=+0-+9", 100},
		{"bytes=-+5", 100},
		{"bytes=0-99", 100},
		{"bytes=-100", 50},
		{"bytes=5000-", 100},
		{"bytes=0-99999999999999999999", 100},
		{"bytes= 3-4 ", 10},
		{"bytes=-0", 0},
		{"bytes=0-1,5-6", 10},
	} {
		f.Add(seed.h, seed.size)
	}
	f.Fuzz(func(t *testing.T, h string, size int64) {
		if size < 0 {
			return // object sizes come from the store, never negative
		}
		off, length, ok, satisfiable := parseRange(h, size)
		if !ok {
			return
		}
		spec, found := strings.CutPrefix(h, "bytes=")
		spec = strings.TrimSpace(spec)
		if !found || !rangeSpec.MatchString(spec) || !strings.ContainsAny(spec, "0123456789") {
			t.Fatalf("parseRange(%q, %d) accepted a spec that is not one digits-only range", h, size)
		}
		if satisfiable && (off < 0 || length < 1 || off+length > size) {
			t.Fatalf("parseRange(%q, %d) = [%d, +%d), outside the object", h, size, off, length)
		}
	})
}
