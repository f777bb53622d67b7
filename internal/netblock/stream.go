package netblock

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Client's store.BlockStreamer implementation: whole framed blocks move
// as a sequence of bounded windows, so a paper-scale 256 MB block never
// needs a single wire frame (or a deadline sized for one). Reads are
// stateless — every window is an independent opReadChunk request, so
// the usual retry/breaker machinery applies per window. Writes stage on
// one pinned connection (opWriteBegin/Chunk/Commit) and commit
// atomically at the server; a connection lost mid-upload discards the
// stage, never leaving a torn block.

// ReadBlockTo streams the block's bytes into w, returning how many were
// written. A block replaced mid-stream is detected by its size change
// where possible; same-size replacement is the caller's CRC check to
// catch (every store block is CRC-framed).
func (c *Client) ReadBlockTo(node int, key string, w io.Writer) (int64, error) {
	var written int64
	var offset, total uint64
	first := true
	maxLen := uint32(c.opts.ChunkSize)
	req := make([]byte, 0, chunkReqLen)
	for {
		body, err := c.do(node, opReadChunk, key, appendChunkReq(req[:0], offset, maxLen), nil)
		if err != nil {
			return written, err
		}
		if len(body) < chunkRespHdrLen {
			return written, fmt.Errorf("netblock: node %d: short chunk response (%d bytes)", node, len(body))
		}
		t := binary.LittleEndian.Uint64(body)
		window := body[chunkRespHdrLen:]
		if first {
			total, first = t, false
		} else if t != total {
			return written, fmt.Errorf("netblock: node %d: block %q resized mid-stream (%d to %d bytes)", node, key, total, t)
		}
		if len(window) > 0 {
			m, werr := w.Write(window)
			written += int64(m)
			if werr != nil {
				return written, werr
			}
		}
		offset += uint64(len(window))
		if offset >= total {
			return written, nil
		}
		if len(window) == 0 {
			return written, fmt.Errorf("netblock: node %d: no progress at offset %d of %d", node, offset, total)
		}
	}
}

// WriteBlockFrom streams r into the block, committing atomically at the
// server. The upload pins one connection for its whole life: a stale
// pooled socket failing the opening handshake is retried on a fresh
// dial (no bytes of r consumed yet), but a failure mid-stream fails the
// upload — the caller retries the whole block, the discarded stage
// costs the server nothing.
func (c *Client) WriteBlockFrom(node int, key string, r io.Reader) (int64, error) {
	n, err := c.node(node)
	if err != nil {
		return 0, err
	}
	if len(key) > maxKeyLen {
		return 0, fmt.Errorf("netblock: key length %d exceeds limit %d", len(key), maxKeyLen)
	}
	probe, err := n.health.allow()
	if err != nil {
		return 0, fmt.Errorf("netblock: node %d: %w", node, err)
	}
	if probe {
		if err := c.attempt(n, node); err != nil {
			return 0, fmt.Errorf("netblock: node %d failed half-open probe: %w", node, err)
		}
	}
	conn, addr, err := c.beginUpload(n, node, key)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, c.opts.ChunkSize)
	var total int64
	for {
		m, rdErr := r.Read(buf)
		if m > 0 {
			if err := c.uploadStep(n, conn, opWriteChunk, node, key, buf[:m]); err != nil {
				conn.Close() // the conn carries the stage; drop both
				return total, err
			}
			total += int64(m)
		}
		if rdErr == io.EOF {
			break
		}
		if rdErr != nil {
			conn.Close()
			return total, rdErr
		}
	}
	if err := c.uploadStep(n, conn, opWriteCommit, node, key, nil); err != nil {
		conn.Close()
		return total, err
	}
	c.putConn(n, conn, addr)
	return total, nil
}

// beginUpload opens the staged upload on a connection the caller then
// pins. Failures on pooled connections retry silently (the socket may
// simply have outlived the server process); the first freshly dialed
// attempt is definitive.
func (c *Client) beginUpload(n *clientNode, node int, key string) (net.Conn, string, error) {
	for {
		conn, addr, pooled, err := c.getConn(n)
		if err != nil {
			n.health.record(false, 0, err)
			return nil, "", err
		}
		start := time.Now()
		status, body, rerr := c.roundTrip(n, conn, opWriteBegin, node, key, nil, nil)
		if rerr != nil {
			conn.Close()
			if pooled {
				continue
			}
			n.health.record(false, time.Since(start), rerr)
			return nil, "", rerr
		}
		n.health.record(true, time.Since(start), nil)
		if status != statusOK {
			conn.Close()
			return nil, "", fmt.Errorf("netblock: node %d: remote error: %s", node, body)
		}
		return conn, addr, nil
	}
}

// uploadStep runs one op of a pinned upload, translating a non-OK
// status into an error. Transport failures are terminal for the upload
// (the stage lives on the connection), so no retry happens here.
func (c *Client) uploadStep(n *clientNode, conn net.Conn, op byte, node int, key string, data []byte) error {
	status, body, err := c.roundTrip(n, conn, op, node, key, data, nil)
	if err != nil {
		n.health.record(false, 0, err)
		return err
	}
	if status != statusOK {
		return fmt.Errorf("netblock: node %d: remote error: %s", node, body)
	}
	return nil
}
