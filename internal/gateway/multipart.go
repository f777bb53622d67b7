package gateway

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/store"
)

// Multipart uploads, S3-style: begin issues an uploadId, parts are
// PUT independently (any order, any process), complete assembles them
// into the final object, abort throws them away.
//
// Crash safety comes from keeping every piece of state in the store's
// durable paths and nothing in gateway memory:
//
//   - The upload record (tenant + key, keyed by uploadId) is committed
//     to the metadata plane's WAL before the begin response acks.
//   - Each part is an ordinary store object under the reserved
//     .mpu/<uploadId>/ namespace — PutReader commits it atomically, so
//     a part either exists whole or not at all.
//   - The committed-parts list is not tracked anywhere: it is discovered
//     by scanning .mpu/<uploadId>/, which is exactly the set of parts
//     whose commits survived.
//
// kill -9 the gateway (or the machine) mid-upload and a fresh process
// over the reopened store sees the record and every fully-acked part;
// the client re-PUTs whatever it never got an ack for and completes.
// Complete retires the record before any part, so a crash after the
// final object commits leaves either the whole upload (a retried complete
// assembles the same bytes again) or no record (a retried complete
// answers 404 and the object stays whole) — never a record over a
// partial set of parts. Parts left behind with no record are swept by an
// abort of their uploadId.
// Tenants cannot reach the part namespace directly: tenant names cannot
// start with '.', so no /t/ URL resolves into .mpu/.

// uploadRecord is the durable begin-time state, stored as opaque JSON
// under the metadata plane's u/<id> key.
type uploadRecord struct {
	Tenant string `json:"tenant"`
	Key    string `json:"key"`
}

// maxPartNumber matches S3's cap; part numbers are 1-based.
const maxPartNumber = 10000

func partPrefix(id string) string { return ".mpu/" + id + "/" }

func partName(id string, n int) string { return fmt.Sprintf("%sp%05d", partPrefix(id), n) }

// randRead fills upload ids; tests replace it to make the source fail.
var randRead = rand.Read

// newUploadID returns a 128-bit random hex id — store-charset safe, so
// it embeds in part object names and meta keys unescaped.
func newUploadID() (string, error) {
	var b [16]byte
	if _, err := randRead(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// getUpload loads and checks an upload record. A missing record and a
// tenant/key mismatch are both "not found": a tenant probing someone
// else's uploadId learns nothing.
func (g *Gateway) getUpload(id, tenant, key string) (uploadRecord, error) {
	var rec uploadRecord
	if err := store.ValidateName(id); err != nil {
		return rec, err
	}
	b, ok := g.st.GetUploadRecord(id)
	if !ok {
		return rec, fmt.Errorf("%w: upload %q", store.ErrNotFound, id)
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("gateway: upload record %q: %w", id, err)
	}
	if rec.Tenant != tenant || rec.Key != key {
		return rec, fmt.Errorf("%w: upload %q", store.ErrNotFound, id)
	}
	return rec, nil
}

// beginUpload mints an uploadId and durably records it before acking.
func (g *Gateway) beginUpload(w http.ResponseWriter, tenant, key string) {
	id, err := newUploadID()
	if err != nil {
		g.writeError(w, err)
		return
	}
	b, err := json.Marshal(uploadRecord{Tenant: tenant, Key: key})
	if err != nil {
		g.writeError(w, err)
		return
	}
	if err := g.st.PutUploadRecord(id, b); err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"uploadId": id, "tenant": tenant, "key": key})
}

// putPart stores one part body. Admission works like handlePut: a
// declared length is admitted before any byte moves, a chunked body is
// charged after the fact.
func (g *Gateway) putPart(w http.ResponseWriter, r *http.Request, t *tenant, id, tenant_, key, partStr string) {
	if g.shedWrite(w) {
		return
	}
	if _, err := g.getUpload(id, tenant_, key); err != nil {
		g.writeError(w, err)
		return
	}
	n, err := strconv.Atoi(partStr)
	if err != nil || n < 1 || n > maxPartNumber {
		g.writeError(w, fmt.Errorf("%w: partNumber %q (want 1..%d)", errBadRequest, partStr, maxPartNumber))
		return
	}
	declared := r.ContentLength
	if declared < 0 {
		declared = 0
	}
	if !g.admit(w, t, declared) {
		return
	}
	cr := &countingReader{r: r.Body, acc: &g.m.bytesIn}
	if err := g.st.PutReader(partName(id, n), cr); err != nil {
		g.writeError(w, err)
		return
	}
	if r.ContentLength < 0 {
		t.lim.Charge(cr.n)
	}
	w.WriteHeader(http.StatusOK)
}

// partStat is one committed part, discovered from the store.
type partStat struct {
	Number int `json:"partNumber"`
	Size   int `json:"size"`
	name   string
}

// partsOf scans the upload's reserved namespace for committed parts,
// sorted by part number.
func (g *Gateway) partsOf(id string) []partStat {
	prefix := partPrefix(id)
	var out []partStat
	for _, o := range g.st.ObjectsWithPrefix(prefix) {
		rest, ok := strings.CutPrefix(o.Name, prefix)
		if !ok || len(rest) < 2 || rest[0] != 'p' {
			continue
		}
		n, err := strconv.Atoi(rest[1:])
		if err != nil {
			continue
		}
		out = append(out, partStat{Number: n, Size: o.Size, name: o.Name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

// listParts reports the committed parts — after a crash and restart
// this is the resume point: whatever is listed survived, whatever is
// missing needs re-uploading.
func (g *Gateway) listParts(w http.ResponseWriter, id, tenant, key string) {
	if _, err := g.getUpload(id, tenant, key); err != nil {
		g.writeError(w, err)
		return
	}
	parts := g.partsOf(id)
	if parts == nil {
		parts = []partStat{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"uploadId": id, "key": key, "parts": parts})
}

// completeUpload streams the parts, in part-number order, through one
// PutReader into the final object, then retires the record and the
// parts. The assembly is a pipe: part bytes never accumulate in
// memory, and the final object commits atomically — a crash mid-
// complete leaves the upload intact and resumable, never a torn object.
func (g *Gateway) completeUpload(w http.ResponseWriter, t *tenant, id, tenant_, key string) {
	if g.shedWrite(w) {
		return
	}
	if _, err := g.getUpload(id, tenant_, key); err != nil {
		g.writeError(w, err)
		return
	}
	parts := g.partsOf(id)
	if len(parts) == 0 {
		g.writeError(w, fmt.Errorf("%w: upload %q has no parts", errBadRequest, id))
		return
	}
	// A tenant in admission debt waits like any other request; the
	// assembled bytes are charged after the fact.
	if !g.admit(w, t, 0) {
		return
	}
	name := tenant_ + "/" + key
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := g.st.PutReader(name, pr)
		// Unblock a writer mid-Write whichever way the put ended.
		pr.CloseWithError(err)
		done <- err
	}()
	var total int64
	var werr error
	for i := range parts {
		info, err := g.st.GetWriter(parts[i].name, pw)
		total += info.BytesWritten
		if err != nil {
			werr = err
			break
		}
	}
	pw.CloseWithError(werr)
	err := <-done
	t.lim.Charge(total)
	if werr != nil {
		// The part read is the root cause; the put's error is just the
		// pipe breaking.
		g.writeError(w, werr)
		return
	}
	if err != nil {
		g.writeError(w, err)
		return
	}
	g.retireUpload(id, parts)
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "size": total, "parts": len(parts)})
}

// abortUpload discards the upload's record and parts. An uploadId with
// no record but parts left under .mpu/<id>/ (a crash mid-retire) is
// swept the same way; a record owned by another tenant or key is still
// "not found".
func (g *Gateway) abortUpload(w http.ResponseWriter, id, tenant, key string) {
	_, err := g.getUpload(id, tenant, key)
	if err != nil {
		if _, ok := g.st.GetUploadRecord(id); !errors.Is(err, store.ErrNotFound) || ok {
			g.writeError(w, err)
			return
		}
	}
	parts := g.partsOf(id)
	if err != nil && len(parts) == 0 {
		g.writeError(w, err)
		return
	}
	g.retireUpload(id, parts)
	w.WriteHeader(http.StatusNoContent)
}

// retireUpload best-effort deletes the upload's record, then its parts.
// The record goes first: once it is gone no complete can reassemble the
// upload, so a crash or a failed delete partway through leaves parts with
// no record (which abort sweeps), never a record over some of its parts.
func (g *Gateway) retireUpload(id string, parts []partStat) {
	if g.st.DeleteUploadRecord(id) != nil {
		return // the record stands over every part: a retry sees the whole upload
	}
	for i := range parts {
		_ = g.st.Delete(parts[i].name) // a part left behind is abort's to sweep
	}
}
