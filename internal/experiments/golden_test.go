package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/lrc"
	"repro/internal/markov"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from this run")

// The whole evaluation — every report on the paper's parameters, plus the
// Fig 3 chain of the Xorbas stripe — renders to exactly the bytes on file.
// The simulation is deterministic, so any difference is a change to a
// number the paper reports; regenerate with -update only when that is the
// intent.
func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, r := range Reports {
		if err := r.Render(&got, 200); err != nil {
			t.Fatalf("%s: %v", r.IDs[0], err)
		}
	}
	ch, err := markov.BuildChain(lrc.NewXorbas(), true, markov.FacebookParams())
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString(ch.Describe())

	const path = "testdata/report.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// The README quotes the paper's numbers in one block between
// <!-- report.golden --> and <!-- /report.golden --> markers. Every line
// of it (code fences and blank lines aside) must be a line of the pinned
// report, so the README cannot quote a number the code does not print.
func TestReadmeQuotesGolden(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, l := range strings.Split(string(golden), "\n") {
		printed[l] = true
	}
	_, block, ok := strings.Cut(string(readme), "<!-- report.golden -->\n")
	block, _, closed := strings.Cut(block, "<!-- /report.golden -->")
	if !ok || !closed {
		t.Fatal("README.md has no <!-- report.golden --> … <!-- /report.golden --> block")
	}
	quoted := 0
	for i, l := range strings.Split(block, "\n") {
		if l == "" || strings.HasPrefix(l, "```") {
			continue
		}
		if !printed[l] {
			t.Errorf("README.md block line %d is not a line of report.golden: %q", i+1, l)
		}
		quoted++
	}
	if quoted < 20 {
		t.Errorf("README.md block quotes %d lines of report.golden, want at least 20", quoted)
	}
}
