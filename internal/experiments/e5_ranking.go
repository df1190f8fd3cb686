package experiments

import (
	"math/rand"
	"strconv"

	"repro/internal/aidetect"
	"repro/internal/corpus"
	"repro/internal/platform"
	"repro/internal/ranking"
)

// e5Config sizes the ranking-accuracy bias sweep.
type e5Config struct {
	// Facts seeds the factual database.
	Facts int
	// WarmupItems shape reputations before evaluation.
	WarmupItems int
	// EvalItems are the scored test items (half factual, half fake).
	EvalItems int
	// Voters is the crowd size.
	Voters int
	// BiasedFracs is the sweep over the biased-voter share.
	BiasedFracs []float64
	Seed        int64
}

// defaultE5 returns the standard configuration.
func defaultE5() e5Config {
	return e5Config{
		Facts: 60, WarmupItems: 30, EvalItems: 60, Voters: 20,
		BiasedFracs: []float64{0, 0.15, 0.30, 0.45}, Seed: 5,
	}
}

// runE5 is the paper's core claim quantified: ranking accuracy (F1 on the
// fake class) for plain-majority crowd sourcing vs the platform's
// mechanisms, as a coordinated biased bloc grows. The combined mechanism
// should degrade far more slowly than majority vote ("prevent bias
// concerns that might be originated from traditional majority decided
// crowd sourcing mechanisms", §IV).
func runE5(cfg e5Config) (*Table, error) {
	t := &Table{
		Title:  "Ranking accuracy vs biased-voter share (fake class F1)",
		Claim:  "AI+trace+reputation ranking resists bias that captures majority voting",
		Header: []string{"biased_frac", "majority", "ai_only", "trace_only", "combined"},
	}
	for _, frac := range cfg.BiasedFracs {
		scores, err := runE5Cell(cfg, frac)
		if err != nil {
			return nil, err
		}
		t.AddRow(f3(frac),
			f3(scores[ranking.MechanismMajority]),
			f3(scores[ranking.MechanismAIOnly]),
			f3(scores[ranking.MechanismTraceOnly]),
			f3(scores[ranking.MechanismCombined]))
	}
	return t, nil
}

// runE5Cell builds a fresh platform for one biased-voter fraction and
// returns per-mechanism F1 on the fake class.
func runE5Cell(cfg e5Config, biasedFrac float64) (map[ranking.Mechanism]float64, error) {
	return runE5CellWeighted(cfg, biasedFrac, ranking.DefaultWeights())
}

// runE5CellWeighted is runE5Cell with custom combined-mechanism weights
// (the E5w ablation).
func runE5CellWeighted(cfg e5Config, biasedFrac float64, w ranking.Weights) (map[ranking.Mechanism]float64, error) {
	pcfg := platform.DefaultConfig()
	pcfg.Weights = w
	p, err := platform.New(pcfg)
	if err != nil {
		return nil, err
	}
	gen := corpus.NewGenerator(cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(biasedFrac*1000)))

	// Train the AI component on an independent corpus.
	train := corpus.NewGenerator(cfg.Seed+999).Generate(500, 500)
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), train.Statements); err != nil {
		return nil, err
	}

	// Seed the factual database and publish the facts as root items so
	// modified fakes can declare parents.
	facts := make([]corpus.Statement, 0, cfg.Facts)
	rootID := make(map[string]string, cfg.Facts)
	publisher := p.NewActor("e5-publisher")
	for i := 0; i < cfg.Facts; i++ {
		s := gen.Factual()
		facts = append(facts, s)
		if err := p.SeedFact(s.ID, s.Topic, s.Text); err != nil {
			return nil, err
		}
		id := "root" + strconv.Itoa(i)
		rootID[s.ID] = id
		if err := publisher.PublishNews(id, s.Topic, s.Text, nil, ""); err != nil {
			return nil, err
		}
	}

	// Voter population.
	pop := ranking.Population(cfg.Voters, biasedFrac, 0.05, 0.9)
	voters := make([]*platform.Actor, cfg.Voters)
	for i := range voters {
		voters[i] = p.NewActor("e5-voter" + strconv.Itoa(i))
		if err := p.MintTo(voters[i].Address(), 1<<20); err != nil {
			return nil, err
		}
	}

	// genItem publishes one labelled item and returns (id, isFake).
	itemSeq := 0
	genItem := func() (string, bool, error) {
		itemSeq++
		id := "item" + strconv.Itoa(itemSeq)
		isFake := rng.Float64() < 0.5
		if !isFake {
			// Factual: either a republication of a fact or new reporting
			// phrased as an official record.
			src := facts[rng.Intn(len(facts))]
			return id, false, publisher.PublishNews(id, src.Topic, src.Text, []string{rootID[src.ID]}, corpus.OpVerbatim)
		}
		if rng.Float64() < corpus.ModifiedShare {
			src := facts[rng.Intn(len(facts))]
			fake := gen.Modify(src, "")
			var parents []string
			// Half the modified fakes declare their parent (caught by the
			// declared-edge trace); half hide it (caught by similarity).
			if rng.Float64() < 0.5 {
				parents = []string{rootID[src.ID]}
			}
			return id, true, publisher.PublishNews(id, fake.Topic, fake.Text, parents, fake.AppliedOp)
		}
		fab := gen.Fabricate()
		return id, true, publisher.PublishNews(id, fab.Topic, fab.Text, nil, "")
	}

	voteAndMaybeResolve := func(id string, isFake bool, resolve bool) error {
		for i, v := range voters {
			decision := pop[i].Decide(!isFake, rng)
			if err := v.Vote(id, decision, 10); err != nil {
				return err
			}
		}
		if resolve {
			return resolveAsAuthority(p, id, !isFake)
		}
		return nil
	}

	// Warm-up: resolved items shape reputations (the accountability loop).
	for w := 0; w < cfg.WarmupItems; w++ {
		id, isFake, err := genItem()
		if err != nil {
			return nil, err
		}
		if err := voteAndMaybeResolve(id, isFake, true); err != nil {
			return nil, err
		}
	}

	// Evaluation: vote but do not resolve; score under every mechanism.
	type labelled struct {
		id     string
		isFake bool
	}
	var eval []labelled
	for e := 0; e < cfg.EvalItems; e++ {
		id, isFake, err := genItem()
		if err != nil {
			return nil, err
		}
		if err := voteAndMaybeResolve(id, isFake, false); err != nil {
			return nil, err
		}
		eval = append(eval, labelled{id, isFake})
	}

	out := make(map[ranking.Mechanism]float64, len(ranking.AllMechanisms))
	for _, mech := range ranking.AllMechanisms {
		var tp, fp, fn int
		for _, item := range eval {
			rank, err := p.RankItem(item.id, mech)
			if err != nil {
				return nil, err
			}
			predFake := !rank.Factual
			switch {
			case predFake && item.isFake:
				tp++
			case predFake && !item.isFake:
				fp++
			case !predFake && item.isFake:
				fn++
			}
		}
		out[mech] = fscore(tp, fp, fn)
	}
	return out, nil
}

// fscore is the F1 on the positive (fake) class.
func fscore(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * prec * rec / (prec + rec)
}
