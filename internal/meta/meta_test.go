package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
)

// openRaw opens a raw-codec DB rooted at dir ("" = memory-only).
func openRaw(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	opts.Dir = dir
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustPut(t *testing.T, db *DB, key, val string) {
	t.Helper()
	if err := db.Put(key, []byte(val)); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, db *DB, key string) (string, bool) {
	t.Helper()
	v, ok := db.Get(key)
	if !ok {
		return "", false
	}
	return string(v.([]byte)), true
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		db := openRaw(t, dir, Options{})
		mustPut(t, db, "a", "1")
		mustPut(t, db, "b", "2")
		if v, ok := get(t, db, "a"); !ok || v != "1" {
			t.Fatalf("dir=%q: Get a = %q, %v", dir, v, ok)
		}
		mustPut(t, db, "a", "3")
		if v, _ := get(t, db, "a"); v != "3" {
			t.Fatalf("dir=%q: overwrite lost: %q", dir, v)
		}
		prev, err := db.Delete("a")
		if err != nil || string(prev.([]byte)) != "3" {
			t.Fatalf("dir=%q: Delete prev = %v, err %v", dir, prev, err)
		}
		if _, ok := db.Get("a"); ok {
			t.Fatalf("dir=%q: deleted key still present", dir)
		}
		if n := db.Len(""); n != 1 {
			t.Fatalf("dir=%q: Len = %d, want 1", dir, n)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	mustPut(t, db, "k1", "v1")
	mustPut(t, db, "k2", "v2")
	if _, err := db.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	// No Close: reopen replays the WAL alone (crash-style recovery).
	db2 := openRaw(t, dir, Options{})
	if _, ok := db2.Get("k1"); ok {
		t.Fatal("deleted key resurrected by replay")
	}
	if v, _ := get(t, db2, "k2"); v != "v2" {
		t.Fatalf("replayed k2 = %q", v)
	}
	if db2.Metrics().ReplayedRecords != 3 {
		t.Fatalf("replayed %d records, want 3", db2.Metrics().ReplayedRecords)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	// Clean close checkpointed: the third open replays nothing.
	db3 := openRaw(t, dir, Options{})
	if got := db3.Metrics().ReplayedRecords; got != 0 {
		t.Fatalf("replayed %d records after clean close, want 0", got)
	}
	if v, _ := get(t, db3, "k2"); v != "v2" {
		t.Fatalf("checkpointed k2 = %q", v)
	}
}

func TestBatchAtomicityAndTxSemantics(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	mustPut(t, db, "old", "x")
	err := db.Commit(func(tx *Tx) {
		tx.Put("n1", []byte("1"))
		if _, ok := tx.Get("n1"); ok {
			t.Error("Tx.Get saw a staged, uncommitted op")
		}
		prev, ok := tx.Delete("old")
		if !ok || string(prev.([]byte)) != "x" {
			t.Errorf("Tx.Delete prev = %v, %v", prev, ok)
		}
		tx.Put("n2", []byte("2"))
	})
	if err != nil {
		t.Fatal(err)
	}
	db2 := openRaw(t, dir, Options{})
	if _, ok := db2.Get("old"); ok {
		t.Fatal("batched delete lost")
	}
	if v, _ := get(t, db2, "n2"); v != "2" {
		t.Fatal("batched put lost")
	}
	// One Commit = one WAL record, however many ops it staged.
	if got := db2.Metrics().ReplayedRecords; got != 2 {
		t.Fatalf("replayed %d records, want 2", got)
	}
}

func TestEncodeErrorAppliesNothing(t *testing.T) {
	db := openRaw(t, t.TempDir(), Options{})
	err := db.Commit(func(tx *Tx) {
		tx.Put("good", []byte("1"))
		tx.Put("bad", 42) // RawCodec rejects non-[]byte
	})
	if err == nil {
		t.Fatal("Commit swallowed an encode error")
	}
	if _, ok := db.Get("good"); ok {
		t.Fatal("failed batch partially applied")
	}
}

func TestScanPrefixSnapshot(t *testing.T) {
	db := openRaw(t, "", Options{})
	want := map[string]string{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("o/%03d", i)
		mustPut(t, db, k, k)
		want[k] = k
	}
	mustPut(t, db, "q/0", "noise")
	var got []string
	it := db.Scan("o/")
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		if string(v.([]byte)) != want[k] {
			t.Fatalf("scan %q = %q", k, v)
		}
		got = append(got, k)
	}
	if len(got) != len(want) {
		t.Fatalf("scan yielded %d keys, want %d", len(got), len(want))
	}
	sort.Strings(got)
	for i, k := range got {
		if k != fmt.Sprintf("o/%03d", i) {
			t.Fatalf("scan missed or duplicated keys around %q", k)
		}
	}
	if db.Metrics().IteratorScans != 1 {
		t.Fatalf("IteratorScans = %d", db.Metrics().IteratorScans)
	}
	if n := db.Len("o/"); n != 100 {
		t.Fatalf("Len(o/) = %d", n)
	}
}

// TestScanDuringWrites checks the snapshot guarantee under concurrent
// commits: keys present for the whole scan appear exactly once.
func TestScanDuringWrites(t *testing.T) {
	db := openRaw(t, "", Options{})
	for i := 0; i < 500; i++ {
		mustPut(t, db, fmt.Sprintf("stable/%04d", i), "v")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("churn/%04d", i%100)
			_ = db.Put(k, []byte("x"))
			_, _ = db.Delete(k)
		}
	}()
	for round := 0; round < 20; round++ {
		seen := map[string]int{}
		it := db.Scan("stable/")
		for {
			k, _, ok := it.Next()
			if !ok {
				break
			}
			seen[k]++
		}
		if len(seen) != 500 {
			t.Fatalf("round %d: scan saw %d stable keys, want 500", round, len(seen))
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("round %d: %q yielded %d times", round, k, n)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := fmt.Sprintf("w%d/%04d", w, i)
				if err := db.Put(k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := db.Metrics()
	if m.CommitRecords != writers*each {
		t.Fatalf("CommitRecords = %d, want %d", m.CommitRecords, writers*each)
	}
	if m.CommitBatches > m.CommitRecords {
		t.Fatalf("more fsync batches (%d) than records (%d)", m.CommitBatches, m.CommitRecords)
	}
	db2 := openRaw(t, dir, Options{})
	if n := db2.Len(""); n != writers*each {
		t.Fatalf("replay recovered %d keys, want %d", n, writers*each)
	}
}

// --- crash semantics ---

// TestTornTailRecordDropped simulates a crash mid-record: the tail is
// cut at every possible byte boundary and recovery must keep everything
// acked before it.
func TestTornTailRecordDropped(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	mustPut(t, db, "a", "111")
	mustPut(t, db, "b", "222")
	mustPut(t, db, "c", "333")
	// Leave the WAL as-is (no Close): find the last record's start.
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	off := int64(0)
	for off < int64(len(raw)) {
		offs = append(offs, off)
		off += 8 + int64(binary.LittleEndian.Uint32(raw[off:]))
	}
	last := offs[len(offs)-1]
	for cut := last + 1; cut < int64(len(raw)); cut++ {
		d2 := t.TempDir()
		if err := os.WriteFile(walPath(d2), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2 := openRaw(t, d2, Options{})
		if v, _ := get(t, db2, "a"); v != "111" {
			t.Fatalf("cut %d: lost a", cut)
		}
		if v, _ := get(t, db2, "b"); v != "222" {
			t.Fatalf("cut %d: lost b", cut)
		}
		if _, ok := db2.Get("c"); ok {
			t.Fatalf("cut %d: torn record half-applied", cut)
		}
		// The torn bytes were truncated away; appending after recovery
		// must yield a clean log.
		mustPut(t, db2, "d", "444")
		db3 := openRaw(t, d2, Options{})
		if v, _ := get(t, db3, "d"); v != "444" {
			t.Fatalf("cut %d: append after torn-tail truncation lost d", cut)
		}
	}
}

// TestCorruptTailChecksumDropped flips a bit inside the final record's
// payload: a full-length tail with a bad CRC is still the torn tail of
// a crash (partially persisted sectors) and is dropped, not fatal.
func TestCorruptTailChecksumDropped(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	mustPut(t, db, "a", "111")
	mustPut(t, db, "b", "222")
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(walPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := openRaw(t, dir, Options{})
	if v, _ := get(t, db2, "a"); v != "111" {
		t.Fatal("lost the record before the corrupt tail")
	}
	if _, ok := db2.Get("b"); ok {
		t.Fatal("corrupt tail record applied")
	}
}

// TestCorruptMidLogRefused flips a bit in a record that has more log
// after it: those later records were acked, so recovery must fail
// loudly instead of silently dropping them.
func TestCorruptMidLogRefused(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	mustPut(t, db, "a", "111")
	mustPut(t, db, "b", "222")
	mustPut(t, db, "c", "333")
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first record's payload.
	raw[9] ^= 0xFF
	if err := os.WriteFile(walPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir})
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorruptLog", err)
	}
}

// TestCorruptCheckpointRefused: the checkpoint is renamed into place
// atomically, so any damage in it is corruption, torn tail included.
func TestCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	mustPut(t, db, "a", "111")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpointPath(dir), raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("truncated checkpoint: err = %v, want ErrCorruptLog", err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	if st, _ := os.Stat(walPath(dir)); st.Size() == 0 {
		t.Fatal("WAL empty before checkpoint")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(walPath(dir)); st.Size() != 0 {
		t.Fatalf("WAL %d bytes after checkpoint, want 0", st.Size())
	}
	mustPut(t, db, "after", "1")
	db2 := openRaw(t, dir, Options{})
	if n := db2.Len(""); n != 51 {
		t.Fatalf("recovered %d keys, want 51", n)
	}
	if got := db2.Metrics().ReplayedRecords; got != 1 {
		t.Fatalf("replayed %d records, want 1 (post-checkpoint only)", got)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	defer func(n int) { checkpointEvery = n }(checkpointEvery)
	checkpointEvery = 10
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	for i := 0; i < 25; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), "v")
	}
	if got := db.Metrics().Checkpoints; got < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2", got)
	}
	db2 := openRaw(t, dir, Options{})
	if n := db2.Len(""); n != 25 {
		t.Fatalf("recovered %d keys, want 25", n)
	}
}

// TestCheckpointCrashWindowIdempotent replays the crash window between
// checkpoint rename and WAL truncation: the WAL still holds records the
// checkpoint covers, and replaying them over it must converge.
func TestCheckpointCrashWindowIdempotent(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	mustPut(t, db, "a", "1")
	mustPut(t, db, "a", "2")
	if _, err := db.Delete("a"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "b", "3")
	wal, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash window: checkpoint live, but the old WAL was never truncated.
	if err := os.WriteFile(walPath(dir), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := openRaw(t, dir, Options{})
	if _, ok := db2.Get("a"); ok {
		t.Fatal("replayed-over checkpoint resurrected a deleted key")
	}
	if v, _ := get(t, db2, "b"); v != "3" {
		t.Fatal("replay over checkpoint lost b")
	}
}

func TestCommitNoSyncOrdered(t *testing.T) {
	dir := t.TempDir()
	db := openRaw(t, dir, Options{})
	if err := db.CommitNoSync(func(tx *Tx) { tx.Put("q/1", []byte("a")) }); err != nil {
		t.Fatal(err)
	}
	// A later synced commit carries the unsynced record with it.
	mustPut(t, db, "o/1", "b")
	db2 := openRaw(t, dir, Options{})
	if _, ok := db2.Get("q/1"); !ok {
		t.Fatal("NoSync record not carried by the next synced commit")
	}
	if _, ok := db2.Get("o/1"); !ok {
		t.Fatal("synced record lost")
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	db := openRaw(t, t.TempDir(), Options{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("k", []byte("v")); err == nil {
		t.Fatal("Commit after Close succeeded")
	}
}
