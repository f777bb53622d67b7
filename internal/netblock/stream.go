package netblock

import (
	"fmt"
	"io"
)

// ReadBlockTo and WriteBlockFrom implement store.BlockStreamer as
// adapters over Read and Write: a block crosses the wire in one frame
// either way, like every other block transfer. Nothing in the program
// calls them; they stay while the benchmark harness asserts the
// interface on the client, and go with it (ROADMAP.md, item 1).

// ReadBlockTo reads the block in one frame and writes it to w, returning
// how many bytes w took.
func (c *Client) ReadBlockTo(node int, key string, w io.Writer) (int64, error) {
	b, err := c.Read(node, key)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// WriteBlockFrom reads r to its end and writes the bytes as the block in
// one frame. A reader that fails, or holds more than maxDataLen bytes,
// writes nothing.
func (c *Client) WriteBlockFrom(node int, key string, r io.Reader) (int64, error) {
	b, err := io.ReadAll(io.LimitReader(r, maxDataLen+1))
	if err != nil {
		return 0, err
	}
	if len(b) > maxDataLen {
		return 0, fmt.Errorf("netblock: block exceeds limit %d", maxDataLen)
	}
	if err := c.Write(node, key, b); err != nil {
		return 0, err
	}
	return int64(len(b)), nil
}
