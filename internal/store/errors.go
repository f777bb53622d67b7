package store

import (
	"errors"
	"fmt"
)

// The store's error contract: exported sentinels callers test with
// errors.Is instead of matching message strings. The HTTP gateway maps
// them straight to status codes (ErrNotFound→404, ErrBadKey→400,
// ErrBadRange→416, ErrUnrecoverable→503), and the netblock protocol
// carries the distinctions across the wire as status bytes.

// sentinelError is a fixed-message error that wraps a broader sentinel,
// so errors.Is matches both the specific error and its umbrella.
type sentinelError struct {
	msg   string
	under error
}

func (e *sentinelError) Error() string { return e.msg }
func (e *sentinelError) Unwrap() error { return e.under }

// ErrNotFound is the umbrella "the thing you named does not exist"
// sentinel: ErrBlockNotFound and ErrObjectNotFound both wrap it, so a
// caller that only cares about existence (the gateway's 404 mapping)
// tests one sentinel.
var ErrNotFound = errors.New("store: not found")

// ErrBlockNotFound reports a block absent from a backend. Wraps
// ErrNotFound.
var ErrBlockNotFound error = &sentinelError{"store: block not found", ErrNotFound}

// ErrObjectNotFound reports a Get/Delete/Stat of an unknown object.
// Wraps ErrNotFound.
var ErrObjectNotFound error = &sentinelError{"store: object not found", ErrNotFound}

// ErrBadKey reports an object name outside the store's key contract
// (see ValidateName).
var ErrBadKey = errors.New("store: invalid object name")

// ErrBadRange reports a GetWindow offset that lies outside the object.
var ErrBadRange = errors.New("store: invalid range")

// ErrUnrecoverable reports a stripe with more damage than the codec can
// decode around — data is genuinely lost until a node revival brings
// blocks back.
var ErrUnrecoverable = errors.New("store: unrecoverable stripe")

// ErrCorrupt reports a block whose payload does not match its checksum.
var ErrCorrupt = errors.New("store: block checksum mismatch")

// ErrGeometryMismatch reports a New whose Config geometry (codec, nodes,
// racks, block size) disagrees with what the metadata plane was created
// with, or a plane that carries no geometry record to check against.
var ErrGeometryMismatch = errors.New("store: geometry disagrees with the metadata plane")

// maxNameLen bounds an object name; manifests and block keys embed it.
const maxNameLen = 1024

// ValidateName checks an object name against the store's key contract:
// non-empty, at most 1024 bytes, every byte in [A-Za-z0-9._/-], and no
// "." / ".." / empty path segments ('/' is the namespace separator the
// gateway layers tenants with; block keys sanitize it away, but meta
// keys and backend paths must never see a traversal segment). Violations
// return an error wrapping ErrBadKey.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrBadKey)
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("%w: name longer than %d bytes", ErrBadKey, maxNameLen)
	}
	segStart := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '/' {
			seg := name[segStart:i]
			if seg == "" || seg == "." || seg == ".." {
				return fmt.Errorf("%w: path segment %q", ErrBadKey, seg)
			}
			segStart = i + 1
			continue
		}
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return fmt.Errorf("%w: byte %q outside [A-Za-z0-9._/-]", ErrBadKey, c)
		}
	}
	return nil
}
