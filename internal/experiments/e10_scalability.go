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

// e10Config sizes the scalability experiment.
type e10Config struct {
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

// defaultE10 returns the standard configuration.
func defaultE10() e10Config {
	return e10Config{
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

// runE10Consensus measures BFT vs PoA block latency as the validator set
// grows — the paper's "high performance blockchain network" requirement
// and the cost of Byzantine tolerance.
func runE10Consensus(cfg e10Config) (*Table, error) {
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

// e10Cluster is E10a's n validators over one simulated network, each with
// its own chain and mempool. The BFT and PoA runs differ only in the node
// each validator runs.
type e10Cluster struct {
	net  *simnet.Network
	set  *consensus.ValidatorSet
	ids  []simnet.NodeID
	kps  []*keys.KeyPair
	apps []*consensus.ChainApp
}

// newE10Cluster builds the validators; poolCap sizes every mempool (0 is
// the mempool default).
func newE10Cluster(n int, seed int64, poolCap int) (*e10Cluster, error) {
	c := &e10Cluster{net: simnet.New(seed)}
	vals := make([]consensus.Validator, n)
	for i := range vals {
		kp := keys.FromSeed([]byte("validator-" + strconv.Itoa(i)))
		vals[i] = consensus.Validator{ID: simnet.NodeID("v" + strconv.Itoa(i)), Addr: kp.Address(), Pub: kp.Public(), Power: 1}
		app := &consensus.ChainApp{Chain: ledger.NewMemChain(), Proposer: kp.Address(), AllowEmpty: true}
		app.Pool = ledger.NewMempool(app.Chain, poolCap)
		c.ids = append(c.ids, vals[i].ID)
		c.kps = append(c.kps, kp)
		c.apps = append(c.apps, app)
	}
	set, err := consensus.NewValidatorSet(vals)
	if err != nil {
		return nil, err
	}
	c.set = set
	return c, nil
}

// run drives the network until every chain holds blocks, and returns the
// virtual milliseconds per block.
func (c *e10Cluster) run(protocol string, blocks uint64) (float64, error) {
	start := c.net.Now()
	c.net.RunWhile(func() bool {
		for _, app := range c.apps {
			if app.Chain.Height() < blocks {
				return c.net.Now()-start < 10*time.Minute
			}
		}
		return false
	})
	for _, app := range c.apps {
		if h := app.Chain.Height(); h < blocks {
			return 0, fmt.Errorf("e10: %s n=%d stalled at height %d", protocol, len(c.apps), h)
		}
	}
	return float64((c.net.Now() - start).Milliseconds()) / float64(blocks), nil
}

func bftLatency(n int, cfg e10Config) (float64, int, error) {
	c, err := newE10Cluster(n, cfg.Seed, 1<<16)
	if err != nil {
		return 0, 0, err
	}
	nodes := make([]*consensus.Node, n)
	for i := range nodes {
		nodes[i] = consensus.NewNode(c.ids[i], c.kps[i], c.set, c.net, c.apps[i], consensus.DefaultTimeouts())
		if err := nodes[i].Bind(); err != nil {
			return 0, 0, err
		}
	}
	client := keys.FromSeed([]byte("e10-client"))
	for i := 0; i < int(cfg.Blocks)*cfg.TxsPerBlock; i++ {
		tx, err := ledger.NewTx(client, uint64(i), "k.m", []byte{byte(i)})
		if err != nil {
			return 0, 0, err
		}
		for _, app := range c.apps {
			if err := app.Pool.Add(tx); err != nil {
				return 0, 0, err
			}
		}
	}
	for _, nd := range nodes {
		nd.Start()
	}
	ms, err := c.run("bft", cfg.Blocks)
	if err != nil {
		return 0, 0, err
	}
	return ms, c.net.Stats().Sent / int(cfg.Blocks), nil
}

func poaLatency(n int, cfg e10Config) (float64, error) {
	c, err := newE10Cluster(n, cfg.Seed, 0)
	if err != nil {
		return 0, err
	}
	if err := c.startPoA(); err != nil {
		return 0, err
	}
	return c.run("poa", cfg.Blocks)
}

// startPoA runs a PoA node with a 50 ms slot on every validator.
func (c *e10Cluster) startPoA() error {
	nodes := make([]*poaNode, len(c.apps))
	for i := range nodes {
		nodes[i] = &poaNode{id: c.ids[i], kp: c.kps[i], set: c.set, net: c.net, app: c.apps[i], interval: 50 * time.Millisecond}
		if err := nodes[i].bind(); err != nil {
			return err
		}
	}
	for _, nd := range nodes {
		nd.start()
	}
	return nil
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

// runE10Parallel measures the serial vs parallel contract executor as the
// write-conflict rate grows — the ablation for the authors' ICDCS 2018
// parallel-blockchain dependency.
func runE10Parallel(cfg e10Config) (*Table, error) {
	t := &Table{
		Title:  "Contract execution: parallel speedup vs conflict rate",
		Claim:  "parallel contract execution scales blockchain throughput when workloads are disjoint",
		Header: []string{"conflict_pct", "txs", "serial_ms", "parallel_ms", "wall_speedup", "reexecuted"},
	}
	// wall_speedup is bounded by the host's physical cores (1.0x on a
	// single-core machine) and shrinks as conflicts grow.
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
		t.AddRow(d(pct), d(cfg.ParallelTxs),
			f1(float64(serialDt.Microseconds())/1000),
			f1(float64(parDt.Microseconds())/1000),
			f3(float64(serialDt)/float64(parDt)),
			d(stats.Conflicts))
	}
	return t, nil
}
