// Quickstart: encode a stripe with the paper's (10,6,5) Locally
// Repairable Code, lose a block, and repair it by reading only 5 blocks
// instead of Reed-Solomon's 10+ — the paper's headline 2× repair saving.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/lrc"
)

func main() {
	// Ten 1 MB data blocks, as if one 10 MB file were striped.
	rng := rand.New(rand.NewSource(42))
	data := make([][]byte, 10)
	for i := range data {
		data[i] = make([]byte, 1<<20)
		rng.Read(data[i])
	}

	// Encode with the Xorbas LRC: 10 data + 4 Reed-Solomon parities +
	// 2 local XOR parities = 16 stored blocks (the third local parity is
	// implied: S1+S2+S3 = 0).
	code := lrc.NewXorbas()
	stripe, err := code.Encode(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d data blocks into %d stored blocks (overhead %.0f%%)\n",
		code.K(), code.NStored(), 100*code.StorageOverhead())

	// Lose X3 (stripe position 2).
	lost := 2
	original := stripe[lost]
	stripe[lost] = nil

	// Light repair: Eq. (1) — read X1, X2, X4, X5 and S1 only.
	reads, _, _ := code.Recipe(lost)
	payload, light, err := code.ReconstructBlock(stripe, lost)
	if err != nil {
		log.Fatal(err)
	}
	if !light || !bytes.Equal(payload, original) {
		log.Fatal("light repair failed")
	}
	fmt.Printf("repaired block %d by reading %d blocks %v (light decoder)\n", lost, len(reads), reads)

	// The Reed-Solomon baseline — the same code without the two local
	// parities — has only the heavy decoder: k = 10 reads for this repair.
	rsCode := lrc.NewRS104()
	rsStripe, err := rsCode.Encode(data)
	if err != nil {
		log.Fatal(err)
	}
	rsStripe[lost] = nil
	if payload, light, err := rsCode.ReconstructBlock(rsStripe, lost); err != nil || light || !bytes.Equal(payload, original) {
		log.Fatal("RS repair failed")
	}
	fmt.Printf("the RS(10,4) baseline reads %d blocks for the same single-block repair\n", rsCode.K())
	fmt.Printf("=> repair I/O reduced %d -> %d blocks (%.1fx), for 14%% more storage\n",
		rsCode.K(), len(reads), float64(rsCode.K())/float64(len(reads)))
}
