// Command trustnews runs an end-to-end demonstration of the platform: it
// seeds a factual database, registers the five ecosystem roles, walks an
// article through the newsroom workflow, publishes and ranks factual and
// fake items, and prints the trace/accountability output for each.
//
//	go run ./cmd/trustnews
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/aidetect"
	"repro/internal/corpus"
	"repro/internal/identity"
	"repro/internal/newsroom"
	"repro/internal/platform"
	"repro/internal/ranking"
)

func main() {
	seed := flag.Int64("seed", 1, "corpus seed")
	dotPath := flag.String("dot", "", "write the supply-chain graph as Graphviz DOT to this file")
	flag.Parse()
	if err := run(*seed, *dotPath); err != nil {
		fmt.Fprintln(os.Stderr, "trustnews:", err)
		os.Exit(1)
	}
}

func run(seed int64, dotPath string) error {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		return err
	}
	gen := corpus.NewGenerator(seed)

	fmt.Println("── 1. train the AI component")
	train := gen.Generate(500, 500)
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), train.Statements); err != nil {
		return err
	}
	fmt.Printf("   trained logistic regression on %d labelled statements\n", len(train.Statements))

	fmt.Println("── 2. seed the factual database from official records")
	facts := make([]corpus.Statement, 0, 20)
	for i := 0; i < 20; i++ {
		s := gen.Factual()
		facts = append(facts, s)
		if err := p.SeedFact(s.ID, s.Topic, s.Text); err != nil {
			return err
		}
	}
	fmt.Printf("   %d facts anchored; merkle root %s\n", p.FactIndex().Len(), p.FactIndex().Root().Short())

	fmt.Println("── 3. register the ecosystem (Fig. 2 roles)")
	pub := p.NewActor("publisher")
	journo := p.NewActor("journalist")
	checker := p.NewActor("factchecker")
	reader := p.NewActor("reader")
	mallory := p.NewActor("mallory")
	for _, reg := range []struct {
		a    *platform.Actor
		name string
		role identity.Role
	}{
		{pub, "Daily Planet", identity.RolePublisher},
		{journo, "Lois Lane", identity.RoleCreator},
		{checker, "Checkers Inc", identity.RoleFactChecker},
		{reader, "A Reader", identity.RoleConsumer},
		{mallory, "Troll Farm", identity.RoleConsumer},
	} {
		if err := reg.a.Register(reg.name, reg.role); err != nil {
			return err
		}
	}
	for _, a := range []*platform.Actor{pub, journo, checker} {
		if err := p.VerifyAccount(a.Address()); err != nil {
			return err
		}
	}
	fmt.Println("   publisher, journalist, fact checker verified; consumers auto-verified")

	fmt.Println("── 4. newsroom workflow (draft → review → publish)")
	mk := func(kind string, payload []byte, by *platform.Actor) error {
		_, err := by.MustExec(kind, payload)
		return err
	}
	pl, _ := newsroom.CreatePlatformPayload("dp", "Daily Planet")
	if err := mk("newsroom.createPlatform", pl, pub); err != nil {
		return err
	}
	rm, _ := newsroom.CreateRoomPayload("metro", "dp", corpus.TopicPolitics)
	if err := mk("newsroom.createRoom", rm, pub); err != nil {
		return err
	}
	ac, _ := newsroom.AccreditPayload("dp", journo.Address())
	if err := mk("newsroom.accredit", ac, pub); err != nil {
		return err
	}
	article := facts[0]
	dr, _ := newsroom.DraftPayload("a1", "metro", "Treaty ratified", article.Text, "two sources on record", nil)
	if err := mk("newsroom.draft", dr, journo); err != nil {
		return err
	}
	act, _ := newsroom.ArticleActPayload("a1")
	if err := mk("newsroom.submit", act, journo); err != nil {
		return err
	}
	if err := mk("newsroom.approve", act, pub); err != nil {
		return err
	}
	fmt.Println("   article a1 published after editorial review")

	fmt.Println("── 5. publish news items to the supply chain")
	if err := journo.PublishNews("real-1", article.Topic, article.Text, nil, ""); err != nil {
		return err
	}
	if err := reader.Relay("relay-1", "real-1"); err != nil {
		return err
	}
	fake := gen.Modify(article, corpus.OpInsert)
	if err := mallory.PublishNews("fake-1", fake.Topic, fake.Text, []string{"relay-1"}, corpus.OpInsert); err != nil {
		return err
	}
	if err := reader.Relay("relay-2", "fake-1"); err != nil {
		return err
	}
	fmt.Println("   real-1 → relay-1 → fake-1 (modified by mallory) → relay-2")

	fmt.Println("── 6. crowd voting with stakes")
	for i := 0; i < 4; i++ {
		v := p.NewActor("voter" + strconv.Itoa(i))
		if err := p.MintTo(v.Address(), 1000); err != nil {
			return err
		}
		if err := v.Vote("relay-2", false, 25); err != nil {
			return err
		}
		if err := v.Vote("real-1", true, 25); err != nil {
			return err
		}
	}

	fmt.Println("── 7. rank, trace, hold accountable")
	for _, id := range []string{"real-1", "relay-2"} {
		rank, err := p.RankItem(id, ranking.MechanismCombined)
		if err != nil {
			return err
		}
		verdict := "FACTUAL"
		if !rank.Factual {
			verdict = "FAKE"
		}
		fmt.Printf("   %-8s score=%.3f → %s (ai=%.2f trace=%.2f depth=%d votes=%d)\n",
			id, rank.Score, verdict, rank.AIFakeProb, rank.Trace.Score, rank.Trace.Depth, rank.VoteCount)
		if rank.Trace.Originator != "" {
			fmt.Printf("            originator of the modification: account %s (item %s)\n",
				rank.Trace.Originator[:12], rank.Trace.OriginatorItem)
		}
	}

	fmt.Println("── 8. resolve and settle the economy")
	for _, id := range []string{"real-1", "relay-2"} {
		if _, err := p.ResolveByRanking(id); err != nil {
			return err
		}
	}
	v0 := p.NewActor("voter0")
	bal, _ := v0.Balance()
	rep, _ := v0.Reputation()
	fmt.Printf("   voter0 after settlement: balance=%d reputation=%.2f\n", bal, rep)

	fmt.Println("── 9. chain state")
	fmt.Printf("   height=%d items=%d facts=%d\n", p.Chain().Height(), p.Graph().Len(), p.FactIndex().Len())
	stats, err := p.Graph().Stats()
	if err != nil {
		return err
	}
	fmt.Printf("   graph: %d edges, max depth %d\n", stats.Edges, stats.MaxDepth)
	if tr, err := p.Graph().Trace("relay-2"); err == nil {
		fmt.Printf("   relay-2 trace path: %v (rooted at fact %s)\n", tr.Path, tr.RootFactID)
	}
	if dotPath != "" {
		f, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		if err := p.Graph().WriteDOT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("   supply-chain graph written to %s (render: dot -Tsvg %s)\n", dotPath, dotPath)
	}
	return nil
}
