// Package netblock moves the store's blocks over real TCP: a Server
// exposes one node process's storage (any store.Backend — dir or mem)
// through a length-prefixed binary protocol, and a Client implements
// store.Backend across N host:port nodes, so repair traffic becomes
// actual network traffic instead of in-process counters. Block payloads
// are the store's CRC-framed blocks passed through untouched: the same
// 4-byte CRC32C header that guards a block on disk guards it on the
// wire, end to end, with no re-framing at either side.
//
// Wire format (all integers little-endian):
//
//	request:  op(1) node(u32) keyLen(u16) dataLen(u32) key data
//	response: status(1) dataLen(u32) data
//
// op is one of opWrite/opRead/opDelete/opDeleteMany/opPing; data is the
// framed block for writes, the key list for opDeleteMany (whose header
// key is empty), empty otherwise. status is statusOK (data = block bytes on
// reads), statusNotFound, statusBadKey (the request's key or node failed
// validation; data = error message), or statusError (data = error
// message). The client maps statuses back onto the store's typed errors
// — store.ErrBlockNotFound, store.ErrBadKey — so errors.Is works the
// same against a remote backend as a local one. A block crosses the wire
// as exactly one frame each way, up to maxDataLen. One request is
// answered by exactly one response, in order, and the server keeps no
// state between requests, so a connection carries a simple call/reply
// stream and pools trivially.
package netblock

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol ops.
const (
	opWrite  = 'W'
	opRead   = 'R'
	opDelete = 'D'
	opPing   = 'P'
	// opDeleteMany deletes a list of blocks from the request's node in
	// one round trip (the store's batched reclamation). Its header key is
	// empty and its payload is the keys, each a keyLen(u16) and its bytes
	// (appendKeyList). The server vets every key before it deletes any.
	opDeleteMany = 'X'
)

// Response statuses.
const (
	statusOK       = 0
	statusNotFound = 1
	statusError    = 2
	statusBadKey   = 3
)

const (
	reqHeaderLen  = 1 + 4 + 2 + 4
	respHeaderLen = 1 + 4
	// maxKeyLen bounds a block key on the wire; store keys are short
	// (name.gNNNNNN.sNNNNN.bNN) and the cap keeps a corrupt header from
	// provoking a giant allocation.
	maxKeyLen = 4096
	// maxDataLen bounds one framed block on the wire (1 GiB; the paper's
	// 256 MB blocks fit with room). Same corrupt-header defense.
	maxDataLen = 1 << 30
)

// appendKeyList encodes an opDeleteMany payload: each key as keyLen(u16)
// and its bytes. Keys longer than maxKeyLen are the caller's to refuse.
func appendKeyList(dst []byte, keys []string) []byte {
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	return dst
}

// parseKeyList decodes an opDeleteMany payload. It checks the framing
// only — a length prefix cut short, a key running past the payload or
// longer than maxKeyLen — and leaves each key's contents to
// validateRequest.
func parseKeyList(b []byte) ([]string, error) {
	var keys []string
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("netblock: key list ends inside a length prefix")
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if n > maxKeyLen || n > len(b) {
			return nil, fmt.Errorf("netblock: key list claims a %d-byte key with %d bytes left (limit %d)", n, len(b), maxKeyLen)
		}
		keys = append(keys, string(b[:n]))
		b = b[n:]
	}
	return keys, nil
}

// request is one decoded client request.
type request struct {
	op   byte
	node int
	key  string
	data []byte
	// keys is opDeleteMany's key list, decoded from data by
	// validateRequest.
	keys []string
}

// appendHeader encodes a request's header and key onto dst and returns
// the extended slice; the payload is not copied in — the client sends
// header+key and the payload as one vectored write, so a block write
// never copies its (possibly multi-MiB) payload into a staging buffer.
func appendHeader(dst []byte, op byte, node int, key string, dataLen int) []byte {
	var hdr [reqHeaderLen]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], uint32(node))
	binary.LittleEndian.PutUint16(hdr[5:], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[7:], uint32(dataLen))
	dst = append(dst, hdr[:]...)
	return append(dst, key...)
}

// appendRequest encodes a whole request onto dst — appendHeader plus the
// payload, for callers (tests) that want the exact wire image.
func appendRequest(dst []byte, op byte, node int, key string, data []byte) []byte {
	return append(appendHeader(dst, op, node, key, len(data)), data...)
}

// requestWireLen is the exact wire size of a request — the client's
// sent-bytes accounting.
func requestWireLen(key string, data []byte) int64 {
	return int64(reqHeaderLen + len(key) + len(data))
}

// readBodyEager is the largest buffer readBody allocates on a header's
// word alone: a 1 MiB block (the largest size shipped or benchmarked)
// plus its CRC frame header, with a page to spare.
const readBodyEager = 1<<20 + 4<<10

// readBody reads exactly n bytes from r into a slice of exactly n bytes:
// cap == len, so whoever retains a block (MemBackend, the block cache, a
// stripe scratch) pins nothing but the block.
//
// The pinned-memory contract. A length field is attacker-controlled on
// both sides (a hostile client against the server, a hostile server
// against the client), so the buffer a frame is read into is never
// larger than max(readBodyEager, 4 × the bytes actually received),
// whatever the header claims: a handful of 11-byte headers claiming
// 1 GiB pin a MiB each, not gigabytes. Within that bound every frame
// up to readBodyEager costs one allocation and no copy. A larger frame
// first receives its leading quarter (by the same rule, recursively) and
// only then allocates its full length, so what it allocates on the way
// sums to under 4⁄3·n and it copies under n/3 — where a doubling buffer
// allocates and zeroes 3·n, copies n and leaves cap ≈ 2·n behind.
func readBody(r io.Reader, n int) ([]byte, error) {
	var head []byte
	if n > readBodyEager {
		var err error
		if head, err = readBody(r, (n+3)/4); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, n)
	if err := readFull(r, buf[copy(buf, head):]); err != nil {
		return nil, err
	}
	return buf, nil
}

// readFull fills buf from r; a stream that ends first is always
// io.ErrUnexpectedEOF, because a header promised these bytes.
func readFull(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readRequest decodes one request from r (the server side).
func readRequest(r io.Reader) (request, error) {
	var hdr [reqHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return request{}, err
	}
	req := request{op: hdr[0], node: int(int32(binary.LittleEndian.Uint32(hdr[1:])))}
	keyLen := int(binary.LittleEndian.Uint16(hdr[5:]))
	// Compare the data length unconverted: on a 32-bit int a corrupt
	// 0xFFFFFFFF header would wrap negative, slip past the limit and
	// panic the make below.
	dataLen64 := uint64(binary.LittleEndian.Uint32(hdr[7:]))
	if keyLen > maxKeyLen {
		return request{}, fmt.Errorf("netblock: key length %d exceeds limit %d", keyLen, maxKeyLen)
	}
	if dataLen64 > maxDataLen {
		return request{}, fmt.Errorf("netblock: block length %d exceeds limit %d", dataLen64, maxDataLen)
	}
	dataLen := int(dataLen64)
	switch req.op {
	case opWrite, opDeleteMany:
	case opRead, opDelete, opPing:
		// Only writes and key lists carry a payload; any other op claiming
		// bytes would make the server buffer up to maxDataLen per request
		// just to throw it away, so it is a protocol violation like an
		// unknown op.
		if dataLen != 0 {
			return request{}, fmt.Errorf("netblock: op %q carries %d payload bytes", req.op, dataLen)
		}
	default:
		return request{}, fmt.Errorf("netblock: unknown op %q", req.op)
	}
	// The key is read on its own so that the payload's buffer holds the
	// payload and nothing else (the backend may keep it; see readBody).
	key, err := readBody(r, keyLen)
	if err != nil {
		return request{}, err
	}
	req.key = string(key)
	if req.data, err = readBody(r, dataLen); err != nil {
		return request{}, err
	}
	return req, nil
}

// writeResponse encodes one response onto w (the server side).
func writeResponse(w io.Writer, status byte, data []byte) error {
	var hdr [respHeaderLen]byte
	hdr[0] = status
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// readResponse decodes one response from r (the client side), returning
// the status, payload and exact wire byte count read. onSize, when
// non-nil, is told the payload length after the header parses and
// before the body is read; the client uses it to grow the IO deadline
// in proportion to a large block's size.
//
// dst is the caller's buffer for the payload, nil for none. A payload
// that fits cap(dst) is received straight into it and the returned data
// is dst[:len]; one that does not fit — and every payload when dst is
// nil — goes through readBody into a buffer of its own, so a length
// field larger than cap(dst) pins exactly what readBody's contract
// allows and no more. Callers use the returned slice, never dst. On
// error dst may hold part of a body.
func readResponse(r io.Reader, onSize func(size int), dst []byte) (status byte, data []byte, wire int64, err error) {
	var hdr [respHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	// Unconverted comparison for the same 32-bit wrap reason as
	// readRequest.
	dataLen64 := uint64(binary.LittleEndian.Uint32(hdr[1:]))
	if dataLen64 > maxDataLen {
		return 0, nil, 0, fmt.Errorf("netblock: response length %d exceeds limit %d", dataLen64, maxDataLen)
	}
	n := int(dataLen64)
	if onSize != nil {
		onSize(n)
	}
	if dst != nil && n <= cap(dst) {
		data = dst[:n]
		err = readFull(r, data)
	} else {
		data, err = readBody(r, n)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	return hdr[0], data, int64(respHeaderLen + n), nil
}
