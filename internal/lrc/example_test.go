package lrc_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/lrc"
)

// Encode a stripe with the paper's (10,6,5) Locally Repairable Code, lose
// a block, and repair it by reading only 5 blocks instead of
// Reed-Solomon's 10 — the paper's headline 2× repair saving.
func Example_quickstart() {
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
		fmt.Println(err)
		return
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
	if err != nil || !light || !bytes.Equal(payload, original) {
		fmt.Println("light repair failed:", err)
		return
	}
	fmt.Printf("repaired block %d by reading %d blocks %v (light decoder)\n", lost, len(reads), reads)

	// The Reed-Solomon baseline — the same code without the two local
	// parities — has only the heavy decoder: k = 10 reads for this repair.
	rsCode := lrc.NewRS104()
	rsStripe, err := rsCode.Encode(data)
	if err != nil {
		fmt.Println(err)
		return
	}
	rsStripe[lost] = nil
	if payload, light, err := rsCode.ReconstructBlock(rsStripe, lost); err != nil || light || !bytes.Equal(payload, original) {
		fmt.Println("RS repair failed:", err)
		return
	}
	fmt.Printf("the RS(10,4) baseline reads %d blocks for the same single-block repair\n", rsCode.K())
	fmt.Printf("=> repair I/O reduced %d -> %d blocks (%.1fx), for 14%% more storage\n",
		rsCode.K(), len(reads), float64(rsCode.K())/float64(len(reads)))
	// Output:
	// encoded 10 data blocks into 16 stored blocks (overhead 60%)
	// repaired block 2 by reading 5 blocks [0 1 3 4 14] (light decoder)
	// the RS(10,4) baseline reads 10 blocks for the same single-block repair
	// => repair I/O reduced 10 -> 5 blocks (2.0x), for 14% more storage
}

// Archival clusters (§7): for cold data one can deploy large LRCs —
// stripe sizes of 50 or 100 blocks — that combine high fault tolerance
// with small storage overhead, which is impractical with Reed-Solomon
// because RS repair traffic grows linearly in the stripe size. Local
// repairs also let most disks spin down: a single-block repair touches
// only r+1 of the stripe's disks.
func Example_archival() {
	fmt.Println("archival stripes: repair cost and disks touched per single-block repair")
	fmt.Printf("%4s | %22s | %22s\n", "k", "RS(k,4): reads/disks", "LRC(k,4,r=5): reads/disks")
	for _, k := range []int{10, 50, 100} {
		// RS(k,4) is the same code type with no local parities.
		rsCode, err := lrc.New(lrc.Params{K: k, GlobalParities: 4})
		if err != nil {
			fmt.Println(err)
			return
		}
		lrcCode, err := lrc.New(lrc.Params{K: k, GlobalParities: 4, GroupSize: 5})
		if err != nil {
			fmt.Println(err)
			return
		}
		reads, _, ok := lrcCode.Recipe(1)
		if !ok {
			fmt.Println("no light repair")
			return
		}
		fmt.Printf("%4d | %10d / %-9d | %10d / %d\n",
			k, rsCode.K(), rsCode.NStored()-1, len(reads), len(reads))
	}

	// An actual 50-block archival stripe round-trip with a lost block
	// repaired from 5 reads.
	k := 50
	code, err := lrc.New(lrc.Params{K: k, GlobalParities: 4, GroupSize: 5})
	if err != nil {
		fmt.Println(err)
		return
	}
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, 64<<10)
		rng.Read(data[i])
	}
	stripe, err := code.Encode(data)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\nencoded a %d-block archival stripe: %d stored blocks, overhead %.0f%% "+
		"(3-replication would cost 200%%)\n", k, code.NStored(), 100*code.StorageOverhead())
	lost := 17
	orig := stripe[lost]
	stripe[lost] = nil
	payload, light, err := code.ReconstructBlock(stripe, lost)
	if err != nil || !light || !bytes.Equal(payload, orig) {
		fmt.Println("light repair failed:", err)
		return
	}
	reads, _, _ := code.Recipe(lost)
	fmt.Printf("repaired block %d by spinning up %d of %d disks — the rest stay down\n",
		lost, len(reads), code.NStored()-1)
	// Output:
	// archival stripes: repair cost and disks touched per single-block repair
	//    k |   RS(k,4): reads/disks | LRC(k,4,r=5): reads/disks
	//   10 |         10 / 13        |          5 / 5
	//   50 |         50 / 53        |          5 / 5
	//  100 |        100 / 103       |          5 / 5
	//
	// encoded a 50-block archival stripe: 64 stored blocks, overhead 28% (3-replication would cost 200%)
	// repaired block 17 by spinning up 5 of 63 disks — the rest stay down
}
