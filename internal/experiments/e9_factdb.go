package experiments

import (
	"math/rand"
	"strconv"

	"repro/internal/aidetect"
	"repro/internal/corpus"
	"repro/internal/platform"
	"repro/internal/ranking"
)

// e9Config sizes the factual-database growth experiment.
type e9Config struct {
	Thresholds []float64
	Items      int
	Voters     int
	HonestAcc  float64
	// BiasedFrac of voters push fakes as factual (stress for the gate).
	BiasedFrac float64
	Seed       int64
}

// defaultE9 returns the standard configuration.
func defaultE9() e9Config {
	return e9Config{
		Thresholds: []float64{0.6, 0.75, 0.9},
		Items:      60, Voters: 12, HonestAcc: 0.72, BiasedFrac: 0.25, Seed: 9,
	}
}

// runE9 measures the §VI promotion pipeline: noisy crowds verify new
// reporting; items clearing the promotion gate enter the factual database.
// The sweep shows the precision/growth trade-off: a lax threshold grows
// the DB fast but admits fakes; a strict one stays clean but grows slowly.
func runE9(cfg e9Config) (*Table, error) {
	t := &Table{
		Title:  "Factual-database growth vs promotion threshold",
		Claim:  "verified news grows the factual database into a trusting news engine",
		Header: []string{"threshold", "items", "promoted", "correct_promotions", "false_promotions", "precision"},
	}
	for _, thr := range cfg.Thresholds {
		pcfg := platform.DefaultConfig()
		pcfg.PromoteThreshold = thr
		p, err := platform.New(pcfg)
		if err != nil {
			return nil, err
		}
		gen := corpus.NewGenerator(cfg.Seed)
		rng := rand.New(rand.NewSource(cfg.Seed))
		train := corpus.NewGenerator(cfg.Seed+999).Generate(400, 400)
		if err := p.TrainClassifier(aidetect.NewLogisticRegression(), train.Statements); err != nil {
			return nil, err
		}
		// A small seeded base so traces have roots.
		for i := 0; i < 20; i++ {
			s := gen.Factual()
			if err := p.SeedFact(s.ID, s.Topic, s.Text); err != nil {
				return nil, err
			}
		}
		baseLen := p.FactIndex().Len()

		voters := make([]*platform.Actor, cfg.Voters)
		for i := range voters {
			voters[i] = p.NewActor("e9-voter" + strconv.Itoa(i))
			if err := p.MintTo(voters[i].Address(), 1<<20); err != nil {
				return nil, err
			}
		}
		publisher := p.NewActor("e9-publisher")
		pop := ranking.Population(cfg.Voters, cfg.BiasedFrac, 0, cfg.HonestAcc)

		correct, wrong := 0, 0
		for i := 0; i < cfg.Items; i++ {
			isFactual := rng.Float64() < 0.6
			var s corpus.Statement
			if isFactual {
				s = gen.Factual()
			} else if rng.Float64() < corpus.ModifiedShare {
				s = gen.Modify(gen.Factual(), "")
			} else {
				s = gen.Fabricate()
			}
			id := "e9-item" + strconv.Itoa(i)
			if err := publisher.PublishNews(id, s.Topic, s.Text, nil, ""); err != nil {
				return nil, err
			}
			for vi, v := range voters {
				if err := v.Vote(id, pop[vi].Decide(isFactual, rng), 10); err != nil {
					return nil, err
				}
			}
			before := p.FactIndex().Len()
			if _, err := p.ResolveByRanking(id); err != nil {
				return nil, err
			}
			if p.FactIndex().Len() > before {
				if isFactual {
					correct++
				} else {
					wrong++
				}
			}
		}
		promoted := p.FactIndex().Len() - baseLen
		prec := 0.0
		if promoted > 0 {
			prec = float64(correct) / float64(correct+wrong)
		}
		t.AddRow(f3(thr), d(cfg.Items), d(promoted), d(correct), d(wrong), f3(prec))
	}
	return t, nil
}
