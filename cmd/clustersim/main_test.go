package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Every id renders something, "all" is the reports concatenated in table
// order, and an unknown id is an error that names the valid ones.
func TestRunDispatch(t *testing.T) {
	const files = 20
	var concat bytes.Buffer
	for _, r := range experiments.Reports {
		var first []byte
		for _, id := range r.IDs {
			var out bytes.Buffer
			if err := run(&out, id, files); err != nil {
				t.Fatalf("-exp %s: %v", id, err)
			}
			if out.Len() == 0 {
				t.Errorf("-exp %s printed nothing", id)
			}
			if first == nil {
				first = out.Bytes()
				concat.Write(first)
			} else if !bytes.Equal(first, out.Bytes()) {
				t.Errorf("-exp %s differs from its alias %s", id, r.IDs[0])
			}
		}
	}
	var all bytes.Buffer
	if err := run(&all, "all", files); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all.Bytes(), concat.Bytes()) {
		t.Error("-exp all is not the concatenation of every report in table order")
	}

	err := run(&all, "fig99", files)
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, id := range append(ids(), "all") {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name %q", err, id)
		}
	}
}
