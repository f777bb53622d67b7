// Command xorbasctl encodes, verifies and repairs real files on disk with
// the paper's codes — a single-machine stand-in for the HDFS-Xorbas
// ErasureCode component (§3.1). A file is split into 10 data shards
// (zero-padded), encoded into the 16-shard (10,6,5) LRC stripe (or the
// 14-shard RS(10,4) stripe with -rs), and each shard is written as
// <out>/<name>.shardNN. Deleted or corrupted shards are rebuilt by
// `repair`, preferring the 5-read light decoder.
//
// Usage:
//
//	xorbasctl encode  [-rs] -in file -out dir
//	xorbasctl verify  -dir dir -name file
//	xorbasctl repair  -dir dir -name file
//	xorbasctl decode  -dir dir -name file -out file
//
// verify, repair and decode read the code from <name>.stripe.json, which
// encode wrote.
//
// The `store` subcommands (see store.go) drive the multi-node object
// store in repro/internal/store instead of a single flat stripe:
//
//	xorbasctl store put|get|kill-node|revive-node|corrupt|scrub|repair-drain|stats [flags]
//
// The `node` subcommand (see node.go) runs one block-server process over
// TCP; `store -backend net -nodes a:7001,b:7002,...` drives a cluster of
// them:
//
//	xorbasctl node serve -dir DIR -listen ADDR
//	xorbasctl node ping -nodes a:7001,b:7002,...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lrc"
)

type meta struct {
	Name     string `json:"name"`
	Size     int64  `json:"size"`
	Shards   int    `json:"shards"`
	RS       bool   `json:"rs"`
	ShardLen int    `json:"shard_len"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "store" {
		if err := storeMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "xorbasctl:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "node" {
		if err := nodeMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "xorbasctl:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	useRS := fs.Bool("rs", false, "encode with RS(10,4) instead of LRC(10,6,5)")
	in := fs.String("in", "", "input file (encode)")
	dir := fs.String("dir", "", "shard directory")
	name := fs.String("name", "", "file name inside the shard directory")
	out := fs.String("out", "", "output directory (encode) or file (decode)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch cmd {
	case "encode":
		err = encode(*in, *out, *useRS)
	case "verify":
		err = verify(*dir, *name)
	case "repair":
		err = repair(*dir, *name)
	case "decode":
		err = decode(*dir, *name, *out)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xorbasctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xorbasctl encode|verify|repair|decode [flags]")
	fmt.Fprintln(os.Stderr, "       xorbasctl store put|get|kill-node|revive-node|corrupt|scrub|repair-drain|stats [flags]")
	fmt.Fprintln(os.Stderr, "       xorbasctl node serve -dir DIR -listen ADDR")
	fmt.Fprintln(os.Stderr, "       xorbasctl node ping -nodes ADDR,ADDR,...")
	fmt.Fprintln(os.Stderr, "       xorbasctl node add|decommission|status|rebalance [flags]")
	os.Exit(2)
}

const k = 10

// codeFor returns the stripe code and its label: RS(10,4) is the LRC's
// own precode with no local parities, so one code type serves both.
func codeFor(useRS bool) (*lrc.Code, string) {
	if useRS {
		return lrc.NewRS104(), "RS (10,4)"
	}
	return lrc.NewXorbas(), "LRC (10,6,5)"
}

func shardPath(dir, name string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard%02d", name, i))
}

func metaPath(dir, name string) string {
	return filepath.Join(dir, name+".stripe.json")
}

// split pads data to a multiple of k and returns the k shards.
func split(data []byte) ([][]byte, int) {
	shardLen := (len(data) + k - 1) / k
	if shardLen == 0 {
		shardLen = 1
	}
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		lo := i * shardLen
		if lo < len(data) {
			copy(shards[i], data[lo:])
		}
	}
	return shards, shardLen
}

func encode(in, outDir string, useRS bool) error {
	if in == "" || outDir == "" {
		return fmt.Errorf("encode needs -in and -out")
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	shards, shardLen := split(data)
	code, kind := codeFor(useRS)
	stripe, err := code.Encode(shards)
	if err != nil {
		return err
	}
	name := filepath.Base(in)
	for i, s := range stripe {
		if err := os.WriteFile(shardPath(outDir, name, i), s, 0o644); err != nil {
			return err
		}
	}
	m := meta{Name: name, Size: int64(len(data)), Shards: len(stripe), RS: useRS, ShardLen: shardLen}
	mb, _ := json.MarshalIndent(m, "", "  ")
	if err := os.WriteFile(metaPath(outDir, name), mb, 0o644); err != nil {
		return err
	}
	fmt.Printf("encoded %s (%d bytes) into %d shards of %d bytes each [%s]\n",
		name, len(data), len(stripe), shardLen, kind)
	return nil
}

func loadStripe(dir, name string) (meta, [][]byte, error) {
	var m meta
	mb, err := os.ReadFile(metaPath(dir, name))
	if err != nil {
		return m, nil, err
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		return m, nil, err
	}
	stripe := make([][]byte, m.Shards)
	for i := range stripe {
		b, err := os.ReadFile(shardPath(dir, name, i))
		if err == nil && len(b) == m.ShardLen {
			stripe[i] = b
		}
	}
	return m, stripe, nil
}

func verify(dir, name string) error {
	m, stripe, err := loadStripe(dir, name)
	if err != nil {
		return err
	}
	missing := 0
	for i, s := range stripe {
		if s == nil {
			fmt.Printf("shard %02d: MISSING\n", i)
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d shards missing; run repair", missing)
	}
	code, _ := codeFor(m.RS)
	ok, err := code.Verify(stripe)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("stripe inconsistent: some shard is corrupted")
	}
	fmt.Println("stripe consistent ✓")
	return nil
}

func repair(dir, name string) error {
	m, stripe, err := loadStripe(dir, name)
	if err != nil {
		return err
	}
	var rebuilt []int
	for i, s := range stripe {
		if s == nil {
			rebuilt = append(rebuilt, i)
		}
	}
	if len(rebuilt) == 0 {
		fmt.Println("nothing to repair")
		return nil
	}
	code, _ := codeFor(m.RS)
	light, heavy, err := code.Reconstruct(stripe)
	if err != nil {
		return err
	}
	fmt.Printf("repaired shards %v: %d via light decoder (5 reads each), %d via heavy decoder (%d reads)\n",
		rebuilt, light, heavy, k)
	for _, i := range rebuilt {
		if err := os.WriteFile(shardPath(dir, name, i), stripe[i], 0o644); err != nil {
			return err
		}
	}
	return nil
}

func decode(dir, name, out string) error {
	if out == "" {
		return fmt.Errorf("decode needs -out")
	}
	m, stripe, err := loadStripe(dir, name)
	if err != nil {
		return err
	}
	code, _ := codeFor(m.RS)
	if _, _, err := code.Reconstruct(stripe); err != nil {
		return err
	}
	buf := make([]byte, 0, m.Size)
	for i := 0; i < k && int64(len(buf)) < m.Size; i++ {
		buf = append(buf, stripe[i]...)
	}
	if int64(len(buf)) > m.Size {
		buf = buf[:m.Size]
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("decoded %d bytes to %s\n", len(buf), out)
	return nil
}
