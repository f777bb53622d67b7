package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The write-ahead log: one append-only segment of length-prefixed,
// CRC32C-framed records. Each record is one committed batch:
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//	payload = uvarint opCount, then per op:
//	  byte kind (0 put, 1 delete) | uvarint keyLen | key
//	  puts add: uvarint valLen | val
//
// The CRC is the same Castagnoli polynomial the store frames blocks
// with, so the whole system has one integrity story. A record becomes
// durable at the group fsync; replay applies records in order, drops a
// torn tail (a record the crash cut short was never acked) and refuses
// a log with corruption anywhere else.

// ErrCorruptLog reports WAL or checkpoint corruption that is not a torn
// tail: acked records can no longer be trusted, so recovery stops
// instead of silently losing them.
var ErrCorruptLog = errors.New("meta: corrupt log record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	opPut    = 0
	opDelete = 1
	// maxRecord bounds a single record; a longer length header is
	// corruption, not a real record.
	maxRecord = 1 << 30

	walName        = "wal.log"
	checkpointName = "checkpoint"
)

// encodeRecord frames one batch of staged ops as a WAL record.
func encodeRecord(ops []txOp) []byte {
	n := binary.MaxVarintLen64
	for i := range ops {
		n += 1 + 2*binary.MaxVarintLen64 + len(ops[i].key) + len(ops[i].enc)
	}
	payload := make([]byte, 8, 8+n)
	payload = binary.AppendUvarint(payload, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		if op.del {
			payload = append(payload, opDelete)
			payload = binary.AppendUvarint(payload, uint64(len(op.key)))
			payload = append(payload, op.key...)
			continue
		}
		payload = append(payload, opPut)
		payload = binary.AppendUvarint(payload, uint64(len(op.key)))
		payload = append(payload, op.key...)
		payload = binary.AppendUvarint(payload, uint64(len(op.enc)))
		payload = append(payload, op.enc...)
	}
	binary.LittleEndian.PutUint32(payload[0:], uint32(len(payload)-8))
	binary.LittleEndian.PutUint32(payload[4:], crc32.Checksum(payload[8:], castagnoli))
	return payload
}

// walOp is one decoded log operation.
type walOp struct {
	del bool
	key string
	val []byte
}

// decodeRecord parses one record payload into its ops. val slices alias
// the payload.
func decodeRecord(payload []byte) ([]walOp, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad op count", ErrCorruptLog)
	}
	payload = payload[n:]
	// Every op takes at least one byte, so a count past the bytes left is
	// corruption, and it must not size the allocation below.
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: op count %d exceeds the record", ErrCorruptLog, count)
	}
	ops := make([]walOp, 0, count)
	readStr := func() (string, error) {
		l, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload)-n) < l {
			return "", fmt.Errorf("%w: bad field length", ErrCorruptLog)
		}
		s := string(payload[n : n+int(l)])
		payload = payload[n+int(l):]
		return s, nil
	}
	for i := uint64(0); i < count; i++ {
		if len(payload) < 1 {
			return nil, fmt.Errorf("%w: truncated op", ErrCorruptLog)
		}
		kind := payload[0]
		payload = payload[1:]
		key, err := readStr()
		if err != nil {
			return nil, err
		}
		switch kind {
		case opDelete:
			ops = append(ops, walOp{del: true, key: key})
		case opPut:
			val, err := readStr()
			if err != nil {
				return nil, err
			}
			ops = append(ops, walOp{key: key, val: []byte(val)})
		default:
			return nil, fmt.Errorf("%w: unknown op kind %d", ErrCorruptLog, kind)
		}
	}
	return ops, nil
}

// replayFile streams a record log, calling apply for each record's ops.
// In tolerant mode (the live WAL) a torn tail — a final record the file
// ends inside, or whose checksum fails with nothing after it — is
// dropped and its offset returned for truncation; strict mode (the
// atomically-renamed checkpoint, which can never legitimately tear)
// turns any damage into ErrCorruptLog. Corruption with more log after
// it always fails: the records beyond it were acked and would be lost.
func replayFile(path string, tolerant bool, apply func(ops []walOp) error) (records int, validOff int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return records, off, nil
		}
		torn := func(what string) (int, int64, error) {
			if tolerant {
				return records, off, nil
			}
			return records, off, fmt.Errorf("%w: %s at offset %d of %s", ErrCorruptLog, what, off, path)
		}
		if len(rest) < 8 {
			return torn("truncated record header")
		}
		length := binary.LittleEndian.Uint32(rest)
		if int64(length) > maxRecord || 8+int64(length) > int64(len(rest)) {
			// The declared record runs past EOF: a torn tail if nothing
			// real can follow, corruption never (there is no "after").
			return torn("truncated record body")
		}
		payload := rest[8 : 8+length]
		if binary.LittleEndian.Uint32(rest[4:]) != crc32.Checksum(payload, castagnoli) {
			if int64(len(rest)) == 8+int64(length) {
				// Bad checksum on the very last record: the torn tail of
				// a crash mid-write. It was never acked; drop it.
				return torn("checksum mismatch on tail record")
			}
			return records, off, fmt.Errorf("%w: checksum mismatch at offset %d of %s (followed by %d more bytes)",
				ErrCorruptLog, off, path, int64(len(rest))-8-int64(length))
		}
		ops, err := decodeRecord(payload)
		if err != nil {
			return records, off, fmt.Errorf("%s at offset %d of %s", err, off, path)
		}
		if err := apply(ops); err != nil {
			return records, off, err
		}
		records++
		off += 8 + int64(length)
	}
}

// flushGroup is one fsync's worth of commits: everyone whose record was
// buffered before the group flushed shares its fate.
type flushGroup struct {
	done chan struct{}
	err  error
}

// walFile is the open WAL segment with its group-commit machinery.
type walFile struct {
	f    *os.File
	path string
	db   *DB // metrics

	mu       sync.Mutex
	cond     *sync.Cond // flushing transitions
	buf      []byte     // records ordered but not yet written
	cur      *flushGroup
	flushing bool
	err      error // sticky: the log no longer matches memory
}

func newWALFile(path string, db *DB) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w := &walFile{f: f, path: path, db: db}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// enqueue orders a record into the buffer (called under the DB commit
// lock, so buffer order is apply order) and returns the group that will
// carry it to disk.
func (w *walFile) enqueue(rec []byte) *flushGroup {
	w.mu.Lock()
	w.buf = append(w.buf, rec...)
	if w.cur == nil {
		w.cur = &flushGroup{done: make(chan struct{})}
	}
	g := w.cur
	w.mu.Unlock()
	return g
}

// wait blocks until g's records are on disk. The first waiter becomes
// the flush leader; commits that arrive while the leader is writing
// form the next group and ride the next fsync — group commit.
func (w *walFile) wait(g *flushGroup) error {
	w.mu.Lock()
	if !w.flushing {
		w.flushLocked()
	}
	w.mu.Unlock()
	<-g.done
	return g.err
}

// flushLocked drains the buffer group by group (called with mu held;
// unlocks around the IO). Any write or sync error is sticky: memory has
// already applied records the log now cannot guarantee, so the plane
// refuses further commits rather than diverge silently.
func (w *walFile) flushLocked() {
	w.flushing = true
	for len(w.buf) > 0 {
		buf, g := w.buf, w.cur
		w.buf, w.cur = nil, nil
		err := w.err
		w.mu.Unlock()
		if err == nil {
			if _, werr := w.f.Write(buf); werr != nil {
				err = werr
			} else if serr := w.f.Sync(); serr != nil {
				err = serr
			}
			w.db.m.commitBatches.Add(1)
		}
		g.err = err
		close(g.done)
		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	w.flushing = false
	w.cond.Broadcast()
}

// quiesce flushes everything pending and parks the log (called with the
// DB commit lock held, so nothing new can be enqueued). Used before a
// checkpoint truncates the segment and before close.
func (w *walFile) quiesce() error {
	w.mu.Lock()
	for w.flushing {
		w.cond.Wait()
	}
	if len(w.buf) > 0 {
		w.flushLocked()
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// reset truncates the segment to empty — everything it held is covered
// by a just-renamed checkpoint. Caller must have quiesced.
func (w *walFile) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *walFile) close() error {
	err := w.quiesce()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory, making a rename or create inside it
// durable. The missing half of the temp+fsync+rename idiom: on some
// filesystems a crash right after rename can otherwise lose the new
// directory entry — and with it a just-acked file.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// walPath / checkpointPath name the plane's two durable files.
func walPath(dir string) string        { return filepath.Join(dir, walName) }
func checkpointPath(dir string) string { return filepath.Join(dir, checkpointName) }
