package experiments

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"time"

	"repro/internal/consensus"
	"repro/internal/contract"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/simnet"
)

// E10Config sizes the scalability experiment.
type E10Config struct {
	ValidatorCounts []int
	Blocks          uint64
	TxsPerBlock     int
	// ConflictRates sweeps the parallel-executor ablation.
	ConflictRates []int // percent of txs touching one shared key
	ParallelTxs   int
	Workers       int
	// WorkRounds is the per-tx compute weight (sha256 chain length).
	WorkRounds int
	Seed       int64
}

// DefaultE10 returns the standard configuration.
func DefaultE10() E10Config {
	return E10Config{
		ValidatorCounts: []int{4, 8, 16, 32},
		Blocks:          5,
		TxsPerBlock:     20,
		ConflictRates:   []int{0, 10, 50, 100},
		ParallelTxs:     512,
		Workers:         8,
		WorkRounds:      400,
		Seed:            10,
	}
}

// RunE10Consensus measures BFT vs PoA block latency as the validator set
// grows — the paper's "high performance blockchain network" requirement
// and the cost of Byzantine tolerance.
func RunE10Consensus(cfg E10Config) (*Table, error) {
	t := &Table{
		Title:  "Consensus scalability: virtual commit latency vs validators",
		Claim:  "a scalable blockchain network is feasible; BFT pays per-validator cost PoA avoids",
		Header: []string{"validators", "bft_ms_per_block", "poa_ms_per_block", "bft_msgs_per_block"},
	}
	for _, n := range cfg.ValidatorCounts {
		bftMs, bftMsgs, err := bftLatency(n, cfg)
		if err != nil {
			return nil, err
		}
		poaMs, err := poaLatency(n, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(d(n), f1(bftMs), f1(poaMs), d(bftMsgs))
	}
	return t, nil
}

func bftLatency(n int, cfg E10Config) (float64, int, error) {
	c, err := consensus.NewCluster(n, cfg.Seed, consensus.DefaultTimeouts())
	if err != nil {
		return 0, 0, err
	}
	client := keys.FromSeed([]byte("e10-client"))
	for i := 0; i < int(cfg.Blocks)*cfg.TxsPerBlock; i++ {
		tx, err := ledger.NewTx(client, uint64(i), "k.m", []byte{byte(i)})
		if err != nil {
			return 0, 0, err
		}
		if err := c.SubmitAll(tx); err != nil {
			return 0, 0, err
		}
	}
	c.Start()
	elapsed := c.RunUntilHeight(cfg.Blocks, 10*time.Minute)
	if c.MinHeight() < cfg.Blocks {
		return 0, 0, fmt.Errorf("e10: bft n=%d stalled at height %d", n, c.MinHeight())
	}
	msgs := c.Net.Stats().Sent / int(cfg.Blocks)
	return float64(elapsed.Milliseconds()) / float64(cfg.Blocks), msgs, nil
}

func poaLatency(n int, cfg E10Config) (float64, error) {
	net := simnet.New(cfg.Seed)
	kps := make([]*keys.KeyPair, n)
	vals := make([]consensus.Validator, n)
	for i := range kps {
		kps[i] = keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = consensus.Validator{
			ID: simnet.NodeID("v" + strconv.Itoa(i)), Addr: kps[i].Address(),
			Pub: kps[i].Public(), Power: 1,
		}
	}
	set, err := consensus.NewValidatorSet(vals)
	if err != nil {
		return 0, err
	}
	apps := make([]*consensus.ChainApp, n)
	nodes := make([]*consensus.PoANode, n)
	for i := 0; i < n; i++ {
		apps[i] = &consensus.ChainApp{Chain: ledger.NewMemChain(), Proposer: kps[i].Address(), AllowEmpty: true}
		apps[i].Pool = ledger.NewMempool(apps[i].Chain, 0)
		nodes[i] = consensus.NewPoANode(vals[i].ID, kps[i], set, net, apps[i], 50*time.Millisecond)
		if err := nodes[i].Bind(); err != nil {
			return 0, err
		}
	}
	for _, nd := range nodes {
		nd.Start()
	}
	start := net.Now()
	net.RunWhile(func() bool {
		for _, app := range apps {
			if app.Chain.Height() < cfg.Blocks {
				return net.Now()-start < 10*time.Minute
			}
		}
		return false
	})
	for _, app := range apps {
		if app.Chain.Height() < cfg.Blocks {
			return 0, fmt.Errorf("e10: poa n=%d stalled", n)
		}
	}
	return float64((net.Now() - start).Milliseconds()) / float64(cfg.Blocks), nil
}

// counterContract is the E10b workload: add-to-counter transactions whose
// key determines the conflict rate. Each call also performs a fixed amount
// of pure compute (hash chaining), standing in for the business logic a
// real platform contract carries — JSON decoding, scoring, signature
// checks — which is what parallel execution amortizes.
type counterContract struct {
	// workRounds is the per-tx compute weight (sha256 chain length).
	workRounds int
}

func (counterContract) Name() string { return "ctr" }

func (c counterContract) Execute(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	if method != "add" {
		return nil, contract.ErrUnknownMethod
	}
	sum := sha256.Sum256(args)
	for i := 0; i < c.workRounds; i++ {
		sum = sha256.Sum256(sum[:])
	}
	key := string(args)
	cur := 0
	if raw, err := ctx.Get(key); err == nil {
		cur = int(raw[0]) | int(raw[1])<<8
	}
	cur++
	return nil, ctx.Put(key, []byte{byte(cur), byte(cur >> 8), sum[0]})
}

// RunE10Parallel measures the serial vs parallel contract executor as the
// write-conflict rate grows — the ablation for the authors' ICDCS 2018
// parallel-blockchain dependency.
func RunE10Parallel(cfg E10Config) (*Table, error) {
	t := &Table{
		Title:  "Contract execution: parallel speedup vs conflict rate",
		Claim:  "parallel contract execution scales blockchain throughput when workloads are disjoint",
		Header: []string{"conflict_pct", "txs", "serial_ms", "parallel_ms", "wall_speedup", "modeled_speedup", "reexecuted"},
	}
	// wall_speedup is bounded by the host's physical cores (1.0x on a
	// single-core machine); modeled_speedup is the critical-path model
	// serial / (serial/workers + reexecution), i.e. what the scheduler
	// achieves when cores >= workers. Both shrink as conflicts grow.
	mkBlock := func(conflictPct int) (*ledger.Block, error) {
		txs := make([]*ledger.Tx, cfg.ParallelTxs)
		for i := range txs {
			kp := keys.FromSeed([]byte("e10u" + strconv.Itoa(i)))
			key := "k" + strconv.Itoa(i)
			if i%100 < conflictPct {
				key = "shared"
			}
			tx, err := ledger.NewTx(kp, 0, "ctr.add", []byte(key))
			if err != nil {
				return nil, err
			}
			txs[i] = tx
		}
		return ledger.NewBlock(0, ledger.BlockID{}, [32]byte{}, time.Unix(0, 0).UTC(), keys.Address{}, txs), nil
	}
	for _, pct := range cfg.ConflictRates {
		blk, err := mkBlock(pct)
		if err != nil {
			return nil, err
		}
		serial := contract.NewEngine()
		if err := serial.Register(counterContract{workRounds: cfg.WorkRounds}); err != nil {
			return nil, err
		}
		t0 := time.Now()
		serial.ExecuteBlock(blk)
		serialDt := time.Since(t0)

		par := contract.NewEngine()
		if err := par.Register(counterContract{workRounds: cfg.WorkRounds}); err != nil {
			return nil, err
		}
		t0 = time.Now()
		_, stats := par.ExecuteBlockParallel(blk, cfg.Workers)
		parDt := time.Since(t0)

		sr, _ := serial.StateRoot()
		pr, _ := par.StateRoot()
		if sr != pr {
			return nil, fmt.Errorf("e10: parallel state diverged at conflict %d%%", pct)
		}
		perTx := float64(serialDt) / float64(cfg.ParallelTxs)
		modeled := float64(serialDt) / (float64(serialDt)/float64(cfg.Workers) + perTx*float64(stats.Conflicts))
		t.AddRow(d(pct), d(cfg.ParallelTxs),
			f1(float64(serialDt.Microseconds())/1000),
			f1(float64(parDt.Microseconds())/1000),
			f3(float64(serialDt)/float64(parDt)),
			f3(modeled),
			d(stats.Conflicts))
	}
	return t, nil
}
