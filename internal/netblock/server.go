package netblock

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// Server exposes a store.Backend over TCP. One server is one node
// process in a real cluster: the CLI's `xorbasctl node serve` wraps a
// DirBackend in one of these, and StartLocal boots one on loopback for
// an in-process fleet. The node id travels in each request and is passed
// through to the backend unchanged, so a server's on-disk layout matches
// the in-process DirBackend layout exactly.
type Server struct {
	be store.Backend
	// ow is be's owned-write fast path when it has one: a request's
	// payload buffer is uniquely owned per request and exactly the
	// block's length, so it can be handed to the backend without the
	// defensive copy Write implies.
	ow store.OwnedWriter
	// Logf, when non-nil, receives per-connection errors (protocol
	// violations, IO failures). The zero value drops them: a killed
	// client is business as usual for a block server.
	Logf func(format string, args ...any)
	// requests counts the requests this server has decoded: the round
	// trips clients made to it.
	requests atomic.Int64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server for be; call Serve to start it.
func NewServer(be store.Backend) *Server {
	s := &Server{be: be, conns: make(map[net.Conn]struct{})}
	s.ow, _ = be.(store.OwnedWriter)
	return s
}

// StartLocal boots a server for be on an ephemeral loopback port,
// serving in a background goroutine, and returns it with its dialable
// address — the one-liner behind every in-process cluster (tests,
// benchmarks, examples). Stop it with Close.
func StartLocal(be store.Backend) (*Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := NewServer(be)
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// Serve accepts connections on l until l is closed (by Close or
// externally), handling each connection's call/reply stream in its own
// goroutine. A listener already shut down by Close is rejected.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("netblock: server closed")
	}
	s.ln = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Addr returns the listening address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close hard-stops the server: the listener and every open connection
// are closed immediately, mid-request — the SIGKILL equivalent the
// chaos tests lean on. In-flight handlers exit on their next IO. Close
// waits for them, so when it returns the backend is quiescent and can
// be handed to a replacement server. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// logf reports a connection-level error through Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle runs one connection's request loop: decode, execute against the
// backend, reply, keeping nothing between requests. Backend failures are
// answered (statusNotFound / statusError), not dropped, so the client can
// tell "block missing" from "node unreachable"; only transport or
// protocol errors end the connection.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		req, err := readRequest(br)
		if err != nil {
			// A clean disconnect between requests arrives as io.EOF;
			// anything else is worth surfacing to Logf.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("netblock: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.requests.Add(1)
		status, data := s.execute(&req)
		if err := writeResponse(bw, status, data); err != nil {
			s.logf("netblock: %s: write response: %v", conn.RemoteAddr(), err)
			return
		}
		if err := bw.Flush(); err != nil {
			s.logf("netblock: %s: flush: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// validateRequest vets a decoded request before any backend call. The
// server cannot trust wire-supplied keys: DirBackend resolves a key as
// a path under the node directory, so a key like "../../etc/passwd"
// from any peer that can reach the port would read, overwrite or delete
// files outside the store. Keys are therefore held to the
// [A-Za-z0-9._-] charset the store layer already guarantees (see
// blockKey and the tmpPrefix comment in internal/store), which excludes
// path separators outright; "." and ".." are the only in-charset names
// with path meaning and are rejected explicitly. Node ids must be
// non-negative for every op, and every op but ping needs a key.
// opDeleteMany carries its keys in the payload instead: validateRequest
// decodes them into req.keys and holds every one to the same rule, so one
// bad key — or a list whose framing is broken — refuses the whole request
// before anything is deleted. Every rejection wraps store.ErrBadKey,
// which execute answers as statusBadKey so the client can surface the
// same sentinel.
func validateRequest(req *request) error {
	if req.node < 0 {
		return fmt.Errorf("%w: negative node id %d", store.ErrBadKey, req.node)
	}
	switch req.op {
	case opPing:
		return nil
	case opDeleteMany:
		if req.key != "" {
			return fmt.Errorf("%w: delete-many names key %q in its header", store.ErrBadKey, req.key)
		}
		keys, err := parseKeyList(req.data)
		if err != nil {
			return fmt.Errorf("%w: %v", store.ErrBadKey, err)
		}
		for _, k := range keys {
			if err := validateKey(k); err != nil {
				return err
			}
		}
		req.keys = keys
		return nil
	}
	return validateKey(req.key)
}

// validateKey holds one wire-supplied key to the store's block-key
// charset (see validateRequest).
func validateKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty key", store.ErrBadKey)
	}
	if key == "." || key == ".." {
		return fmt.Errorf("%w: invalid key %q", store.ErrBadKey, key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return fmt.Errorf("%w: invalid key %q: byte %q outside [A-Za-z0-9._-]", store.ErrBadKey, key, c)
		}
	}
	return nil
}

// execute runs one decoded request against the backend. The request
// stands alone: nothing of it outlives the reply.
func (s *Server) execute(req *request) (status byte, data []byte) {
	if err := validateRequest(req); err != nil {
		return statusBadKey, []byte(err.Error())
	}
	switch req.op {
	case opWrite:
		// req.data is this request's own buffer, holding exactly the block
		// (readRequest reads the key apart from it) and read by nothing
		// after execute, so an owned-write backend keeps it copy-free and
		// pins no byte beyond the block.
		var err error
		if s.ow != nil {
			err = s.ow.WriteOwned(req.node, req.key, req.data)
		} else {
			err = s.be.Write(req.node, req.key, req.data)
		}
		if err != nil {
			return statusError, []byte(err.Error())
		}
		return statusOK, nil
	case opRead:
		b, err := s.be.Read(req.node, req.key)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return statusNotFound, nil
			}
			return statusError, []byte(err.Error())
		}
		return statusOK, b
	case opDelete:
		if err := s.be.Delete(req.node, req.key); err != nil {
			return statusError, []byte(err.Error())
		}
		return statusOK, nil
	case opDeleteMany:
		for _, k := range req.keys {
			if err := s.be.Delete(req.node, k); err != nil {
				return statusError, []byte(err.Error())
			}
		}
		return statusOK, nil
	case opPing:
		return statusOK, nil
	default:
		// readRequest already rejected unknown ops; belt and braces.
		return statusError, []byte("netblock: unknown op")
	}
}
