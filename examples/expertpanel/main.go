// Expertpanel example: §VI's expert-discovery mechanism. The ledger
// accumulates publishing history for accounts of very different quality;
// when a breaking story needs fact-checking, the platform mines the ledger
// and suggests the accounts whose record is consistently factual — growing
// the fact-checker pool "dynamically ... in real time when news emerges".
//
//	go run ./examples/expertpanel
package main

import (
	"fmt"
	"log"
	"strconv"

	trustnews "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	p, err := trustnews.NewPlatform(trustnews.DefaultConfig())
	if err != nil {
		return err
	}
	gen := trustnews.NewCorpusGenerator(9)

	// Official records for two domains.
	politics := make([]trustnews.Statement, 0, 30)
	health := make([]trustnews.Statement, 0, 30)
	for i := 0; i < 30; i++ {
		sp := gen.FactualOn(trustnews.TopicPolitics)
		sh := gen.FactualOn(trustnews.TopicHealth)
		politics = append(politics, sp)
		health = append(health, sh)
		if err := p.SeedFact(sp.ID, sp.Topic, sp.Text); err != nil {
			return err
		}
		if err := p.SeedFact(sh.ID, sh.Topic, sh.Text); err != nil {
			return err
		}
	}

	// Build ledger history: two genuine domain experts, a generalist with
	// mixed accuracy, and a troll.
	seq := 0
	post := func(a *trustnews.Actor, topic trustnews.Statement) error {
		seq++
		return a.PublishNews("item-"+strconv.Itoa(seq), topic.Topic, topic.Text, nil, "")
	}
	polExpert := p.NewActor("dr-politics")
	healthExpert := p.NewActor("dr-health")
	generalist := p.NewActor("generalist")
	troll := p.NewActor("troll")
	rng := gen.Rand()
	for i := 0; i < 10; i++ {
		if err := post(polExpert, politics[rng.Intn(len(politics))]); err != nil {
			return err
		}
		if err := post(healthExpert, health[rng.Intn(len(health))]); err != nil {
			return err
		}
		// Generalist: half factual, half fabricated.
		if i%2 == 0 {
			if err := post(generalist, politics[rng.Intn(len(politics))]); err != nil {
				return err
			}
		} else {
			fab := gen.Fabricate()
			if err := generalist.PublishNews("item-g"+strconv.Itoa(i), trustnews.TopicPolitics, fab.Text, nil, ""); err != nil {
				return err
			}
		}
		fab := gen.Fabricate()
		if err := troll.PublishNews("item-t"+strconv.Itoa(i), trustnews.TopicPolitics, fab.Text, nil, ""); err != nil {
			return err
		}
	}

	// Breaking news on politics: who should fact-check it?
	names := map[string]string{
		polExpert.Address().String():    "dr-politics",
		healthExpert.Address().String(): "dr-health",
		generalist.Address().String():   "generalist",
		troll.Address().String():        "troll",
	}
	for _, tp := range []string{"politics", "health"} {
		topic := trustnews.TopicPolitics
		if tp == "health" {
			topic = trustnews.TopicHealth
		}
		experts, err := p.Experts(topic, 3)
		if err != nil {
			return err
		}
		fmt.Printf("suggested fact-checkers for breaking %s news:\n", tp)
		for i, es := range experts {
			fmt.Printf("  %d. %-12s score=%.2f (%d items, %d flagged fake)\n",
				i+1, names[es.Account], es.Score, es.Items, es.Fake)
		}
	}
	return nil
}
