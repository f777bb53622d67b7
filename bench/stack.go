package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/gateway"
	"repro/internal/netblock"
	"repro/internal/store"
)

// fleetNodes is the block-server count of every stack the benchmark
// boots: one loopback netblock server per store node, enough for the
// 16-wide LRC(10,6,5) stripe to put one block on each.
const fleetNodes = 16

// stackConfig is what varies between the stacks the workloads boot.
// Everything else (racks, worker pools, fsync policy, netblock options,
// repair workers) is what xorbasd ships with.
type stackConfig struct {
	rs         bool  // RS(10,4) baseline codec; false = Xorbas LRC(10,6,5)
	blockSize  int   // store.Config.BlockSize
	cacheBytes int64 // store.Config.CacheBytes
	// rec, when non-nil, injects the tracing wrappers through the
	// program's own seams (store.Config.Codec, store.Config.Backend, the
	// http.Handler); nil boots the stack exactly as the daemon would.
	rec *recorder
}

// stack is the real serving path in one process: net/http server →
// gateway → store (metadata plane on disk) → netblock client → loopback
// TCP → 16 netblock servers over memory backends.
type stack struct {
	mems    []*store.MemBackend
	servers []*netblock.Server
	client  *netblock.Client
	st      *store.Store
	rm      *store.RepairManager
	sc      *store.Scrubber
	gw      *gateway.Gateway
	srv     *http.Server
	served  chan error
	base    string // http://127.0.0.1:port
	metaDir string
}

func newCodec(rs bool) store.Codec {
	if rs {
		return store.NewRS104Codec()
	}
	return store.NewXorbasCodec()
}

// bootFleet starts n loopback block servers over fresh memory backends.
func bootFleet(n int) (mems []*store.MemBackend, servers []*netblock.Server, addrs []string, err error) {
	for i := 0; i < n; i++ {
		mem := store.NewMemBackend()
		srv, addr, err := netblock.StartLocal(mem)
		if err != nil {
			closeFleet(servers)
			return nil, nil, nil, fmt.Errorf("start block server %d: %w", i, err)
		}
		mems = append(mems, mem)
		servers = append(servers, srv)
		addrs = append(addrs, addr)
	}
	return mems, servers, addrs, nil
}

func closeFleet(servers []*netblock.Server) {
	for _, srv := range servers {
		srv.Close()
	}
}

// bootStack brings the whole serving path up under tmpRoot.
func bootStack(cfg stackConfig, tmpRoot string) (*stack, error) {
	s := &stack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var addrs []string
	var err error
	s.mems, s.servers, addrs, err = bootFleet(fleetNodes)
	if err != nil {
		return nil, err
	}
	s.client, err = netblock.Dial(addrs, netblock.Options{})
	if err != nil {
		return nil, err
	}
	s.metaDir, err = os.MkdirTemp(tmpRoot, "meta-")
	if err != nil {
		return nil, err
	}
	var backend store.Backend = s.client
	codec := newCodec(cfg.rs)
	if cfg.rec != nil {
		backend = &tracedBackend{inner: s.client, rec: cfg.rec}
		codec = &tracedCodec{inner: codec, rec: cfg.rec}
	}
	s.st, err = store.New(store.Config{
		Codec:      codec,
		Backend:    backend,
		Nodes:      fleetNodes,
		Racks:      8,
		BlockSize:  cfg.blockSize,
		CacheBytes: cfg.cacheBytes,
		MetaDir:    s.metaDir,
	})
	if err != nil {
		return nil, err
	}
	s.rm = store.NewRepairManager(s.st, 0)
	s.rm.Start()
	s.sc = store.NewScrubber(s.st, s.rm, 0)
	s.gw, err = gateway.New(gateway.Config{Store: s.st})
	if err != nil {
		return nil, err
	}
	var handler http.Handler = s.gw
	if cfg.rec != nil {
		handler = &tracedHandler{inner: s.gw, rec: cfg.rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	ok = true
	return s, nil
}

// close tears the stack down in the daemon's order — HTTP first, then
// the repair plane, then the store — and waits for every goroutine it
// started. Safe on a partially booted stack.
func (s *stack) close() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.rm != nil {
		s.rm.Stop()
	}
	if s.st != nil {
		errs = append(errs, s.st.Close())
	}
	if s.client != nil {
		errs = append(errs, s.client.Close())
	}
	closeFleet(s.servers)
	if s.metaDir != "" {
		errs = append(errs, os.RemoveAll(s.metaDir))
	}
	return errors.Join(errs...)
}

// requestsFinished is how many requests the gateway's handler has run to
// its end (the gateway counts a request in a deferred call).
func (s *stack) requestsFinished() (n int64) {
	for _, v := range s.gw.Metrics().Verbs {
		n += v.Requests
	}
	return n
}

// storedBytes counts, on the node side, the framed bytes the block
// servers hold for every object in the store and the user bytes those
// objects carry: each stripe position's location is looked up and its
// length read from the node's own memory backend, not from a store
// counter the program could redefine.
func (s *stack) storedBytes() (stored, user int64, err error) {
	nStored := s.st.Codec().NStored()
	for _, o := range s.st.Objects() {
		user += int64(o.Size)
		for st := 0; st < o.Stripes; st++ {
			for pos := 0; pos < nStored; pos++ {
				node, key, err := s.st.BlockLocation(o.Name, st, pos)
				if err != nil {
					return 0, 0, err
				}
				b, err := s.mems[node].Read(node, key)
				if err != nil {
					return 0, 0, err
				}
				stored += int64(len(b))
			}
		}
	}
	return stored, user, nil
}
