package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliutil"
)

// TestStoreSubcommandsPersistThroughPlaneOnly drives every `store`
// subcommand (and the membership ones that save) as separate
// invocations against one directory: each must find what the previous
// one left — through the plane at <dir>/meta alone, since no invocation
// may write the legacy state blob.
func TestStoreSubcommandsPersistThroughPlaneOnly(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "st")
	in, out := filepath.Join(root, "in.bin"), filepath.Join(root, "out.bin")
	want := make([]byte, 4096*10+123)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := os.WriteFile(in, want, 0o644); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		run  func([]string) error
		args []string
	}{
		{storeMain, []string{"put", "-dir", dir, "-in", in, "-name", "obj", "-code", "rs", "-block", "4096"}},
		{storeMain, []string{"put", "-dir", dir, "-in", in, "-name", "obj2"}},
		{storeMain, []string{"kill-node", "-dir", dir, "-node", "3"}},
		{storeMain, []string{"get", "-dir", dir, "-name", "obj", "-out", out}},
		{storeMain, []string{"corrupt", "-dir", dir, "-name", "obj2", "-stripe", "0", "-block-idx", "1"}},
		{storeMain, []string{"repair-drain", "-dir", dir}},
		{storeMain, []string{"scrub", "-dir", dir}},
		{storeMain, []string{"revive-node", "-dir", dir, "-node", "3"}},
		{nodeMain, []string{"add", "-dir", dir}},
		{nodeMain, []string{"decommission", "-dir", dir, "-node", "5"}},
		{nodeMain, []string{"rebalance", "-dir", dir}},
		{nodeMain, []string{"status", "-dir", dir}},
		{storeMain, []string{"stats", "-dir", dir}},
		{storeMain, []string{"get", "-dir", dir, "-name", "obj2", "-out", out}},
	}
	for _, st := range steps {
		if err := st.run(st.args); err != nil {
			t.Fatalf("xorbasctl %v: %v", st.args, err)
		}
		if _, err := os.Stat(filepath.Join(dir, cliutil.LegacyStateFile)); err == nil {
			t.Fatalf("xorbasctl %v wrote %s", st.args, cliutil.LegacyStateFile)
		}
	}
	got, err := os.ReadFile(out)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("obj2 after kill/corrupt/repair/rebalance across %d invocations: err %v, equal %v", len(steps), err, bytes.Equal(got, want))
	}
	if _, err := os.Stat(filepath.Join(dir, "meta")); err != nil {
		t.Fatalf("no plane at the default location: %v", err)
	}
}
