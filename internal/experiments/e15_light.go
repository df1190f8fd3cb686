package experiments

import (
	"strconv"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/light"
)

// e15Config sizes the light-client experiment.
type e15Config struct {
	// Heights are the chain lengths to measure at.
	Heights []int
	// TxsPerBlock sets the block body size.
	TxsPerBlock int
}

// defaultE15 returns the standard configuration.
func defaultE15() e15Config {
	return e15Config{Heights: []int{10, 100, 1000}, TxsPerBlock: 50}
}

// runE15 quantifies the reader-verification extension: how much a
// header-only client stores versus a full node, how large one inclusion
// proof is, and how fast proofs verify. The paper's complaint is that
// readers cannot check what has been verified; this is the cost of letting
// them.
func runE15(cfg e15Config) (*Table, error) {
	t := &Table{
		Title:  "Light-client verification cost vs chain length (extension)",
		Claim:  "readers can verify committed items at a tiny fraction of full-node storage",
		Header: []string{"blocks", "full_chain_kb", "headers_kb", "storage_ratio", "proof_bytes", "verify_us"},
	}
	alice := keys.FromSeed([]byte("e15"))
	headerSize := len((&ledger.Block{}).Encode()) // canonical header + empty body framing

	for _, n := range cfg.Heights {
		chain := ledger.NewMemChain()
		nonce := uint64(0)
		var lastTx *ledger.Tx
		fullBytes := 0
		for b := 0; b < n; b++ {
			txs := make([]*ledger.Tx, cfg.TxsPerBlock)
			for i := range txs {
				tx, err := ledger.NewTx(alice, nonce, "news.publish", []byte("item-"+strconv.Itoa(b)+"-"+strconv.Itoa(i)))
				if err != nil {
					return nil, err
				}
				nonce++
				txs[i] = tx
			}
			lastTx = txs[len(txs)-1]
			blk := ledger.NewBlock(chain.Height(), chain.HeadID(), [32]byte{}, time.Unix(1562500000, 0).UTC(), alice.Address(), txs)
			fullBytes += len(blk.Encode())
			if err := chain.Append(blk, nil); err != nil {
				return nil, err
			}
		}
		client := light.NewClient()
		if err := client.SyncFrom(chain); err != nil {
			return nil, err
		}
		proof, err := light.Prove(chain, lastTx.ID())
		if err != nil {
			return nil, err
		}
		proofBytes := len(proof.TxRaw) + len(proof.Merkle.Steps)*33 + headerSize

		const verifyRuns = 200
		start := time.Now()
		for i := 0; i < verifyRuns; i++ {
			if _, err := client.Verify(proof); err != nil {
				return nil, err
			}
		}
		verifyUs := float64(time.Since(start).Microseconds()) / verifyRuns

		headerBytes := n * headerSize
		t.AddRow(d(n),
			f1(float64(fullBytes)/1024),
			f1(float64(headerBytes)/1024),
			f3(float64(headerBytes)/float64(fullBytes)),
			d(proofBytes),
			f1(verifyUs))
	}
	return t, nil
}
