package experiments

import (
	"strconv"
	"time"

	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/supplychain"
)

// e10cConfig sizes the block-batching throughput sweep.
type e10cConfig struct {
	BatchSizes []int
	// TotalTxs per cell.
	TotalTxs int
	Seed     int64
}

// defaultE10c returns the standard configuration.
func defaultE10c() e10cConfig {
	return e10cConfig{BatchSizes: []int{1, 8, 64, 512}, TotalTxs: 1024, Seed: 10}
}

// runE10Batching measures standalone-platform throughput as the block
// batch size grows — the classic blockchain amortization curve: per-block
// overhead (tx-root hashing, state-root computation, header handling) is
// spread over more transactions.
func runE10Batching(cfg e10cConfig) (*Table, error) {
	t := &Table{
		Title:  "Platform throughput vs block batch size",
		Claim:  "batching amortizes per-block overhead (the high-performance network need)",
		Header: []string{"batch", "blocks", "total_ms", "tx_per_s"},
	}
	for _, batch := range cfg.BatchSizes {
		pcfg := platform.DefaultConfig()
		pcfg.MaxTxsPerBlock = batch
		p, err := platform.New(pcfg)
		if err != nil {
			return nil, err
		}
		// Pre-sign all transactions so the cell times commit cost only.
		txs := make([]*ledger.Tx, cfg.TotalTxs)
		// Spread senders so nonce chains do not serialize batching.
		senders := make([]*keys.KeyPair, 64)
		nonces := make([]uint64, len(senders))
		for i := range senders {
			senders[i] = keys.FromSeed([]byte("e10c-" + strconv.Itoa(i)))
		}
		for i := range txs {
			s := i % len(senders)
			payload, err := supplychain.PublishPayload(
				"b"+strconv.Itoa(batch)+"-item"+strconv.Itoa(i),
				corpus.TopicPolitics, "statement number "+strconv.Itoa(i), nil, "")
			if err != nil {
				return nil, err
			}
			tx, err := ledger.NewTx(senders[s], nonces[s], "news.publish", payload)
			if err != nil {
				return nil, err
			}
			nonces[s]++
			txs[i] = tx
		}
		for _, tx := range txs {
			if err := p.Submit(tx); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		blocks := 0
		for {
			blk, _, err := p.Commit()
			if err != nil {
				return nil, err
			}
			if blk == nil {
				break
			}
			blocks++
		}
		elapsed := time.Since(start)
		t.AddRow(d(batch), d(blocks),
			f1(float64(elapsed.Microseconds())/1000),
			f1(float64(cfg.TotalTxs)/elapsed.Seconds()))
	}
	return t, nil
}
