package aidetect

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
)

func trainTest(t testing.TB, seed int64, nFact, nFake int) (train, test []corpus.Statement) {
	t.Helper()
	c := corpus.NewGenerator(seed).Generate(nFact, nFake)
	return c.Split(0.7, rand.New(rand.NewSource(seed)))
}

func TestNaiveBayesLearnsCorpus(t *testing.T) {
	train, test := trainTest(t, 1, 600, 600)
	nb := NewNaiveBayes()
	if err := nb.Train(train); err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(nb, test)
	if err != nil {
		t.Fatal(err)
	}
	// NB is blind to the mixing/merging operators by construction (their
	// token content is entirely factual vocabulary), so its ceiling on
	// this corpus is well below perfect — the finding that motivates the
	// paper's trace-based ranking (E5).
	if ev.Accuracy < 0.75 {
		t.Fatalf("NB accuracy=%.3f want >=0.75", ev.Accuracy)
	}
	if ev.AUC < 0.8 {
		t.Fatalf("NB AUC=%.3f want >=0.8", ev.AUC)
	}
}

func TestLogisticRegressionLearnsCorpus(t *testing.T) {
	train, test := trainTest(t, 2, 600, 600)
	lr := NewLogisticRegression()
	if err := lr.Train(train); err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(lr, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.88 {
		t.Fatalf("LR accuracy=%.3f want >=0.88", ev.Accuracy)
	}
	if ev.AUC < 0.9 {
		t.Fatalf("LR AUC=%.3f want >=0.9", ev.AUC)
	}
}

func TestEmotionOnlyIsWeakerThanLearned(t *testing.T) {
	train, test := trainTest(t, 3, 800, 800)
	lr := NewLogisticRegression()
	lr.Train(train)
	emo := NewEmotionOnly()
	emo.Train(train)
	evLR, _ := Evaluate(lr, test)
	evEmo, _ := Evaluate(emo, test)
	if evEmo.AUC >= evLR.AUC {
		t.Fatalf("emotion-only AUC %.3f >= LR AUC %.3f; ablation inverted", evEmo.AUC, evLR.AUC)
	}
	if evEmo.Accuracy >= evLR.Accuracy {
		t.Fatalf("emotion-only acc %.3f >= LR acc %.3f; ablation inverted", evEmo.Accuracy, evLR.Accuracy)
	}
	// But the emotion signal alone is still informative (paper §I).
	if evEmo.AUC < 0.6 {
		t.Fatalf("emotion-only AUC=%.3f; lexicon signal missing", evEmo.AUC)
	}
}

func TestScoreBeforeTrainErrors(t *testing.T) {
	for _, c := range []TextClassifier{NewNaiveBayes(), NewLogisticRegression(), NewEmotionOnly()} {
		if _, err := c.Score("anything"); err != ErrNotTrained {
			t.Errorf("%T: want ErrNotTrained, got %v", c, err)
		}
	}
}

func TestTrainEmptyErrors(t *testing.T) {
	for _, c := range []TextClassifier{NewNaiveBayes(), NewLogisticRegression(), NewEmotionOnly()} {
		if err := c.Train(nil); err != ErrNoData {
			t.Errorf("%T: want ErrNoData, got %v", c, err)
		}
	}
}

func TestNaiveBayesNeedsBothClasses(t *testing.T) {
	c := corpus.NewGenerator(1).Generate(50, 0)
	nb := NewNaiveBayes()
	if err := nb.Train(c.Statements); err == nil {
		t.Fatal("want error for single-class training")
	}
}

func TestScoresAreProbabilities(t *testing.T) {
	train, test := trainTest(t, 4, 200, 200)
	for _, c := range []TextClassifier{NewNaiveBayes(), NewLogisticRegression(), NewEmotionOnly()} {
		if err := c.Train(train); err != nil {
			t.Fatal(err)
		}
		for _, s := range test[:50] {
			sc, err := c.Score(s.Text)
			if err != nil {
				t.Fatal(err)
			}
			if sc < 0 || sc > 1 {
				t.Fatalf("%T score=%f out of [0,1]", c, sc)
			}
		}
	}
}

func TestClassifierSeparatesObviousCases(t *testing.T) {
	train, _ := trainTest(t, 5, 800, 800)
	nb := NewNaiveBayes()
	nb.Train(train)
	factual := "the central bank reported the employment report per the published minutes"
	fake := "shocking you won't believe the rigged corrupt scandal exposed wake up"
	sf, _ := nb.Score(factual)
	sk, _ := nb.Score(fake)
	if sf >= 0.5 {
		t.Fatalf("factual text scored %.3f", sf)
	}
	if sk <= 0.5 {
		t.Fatalf("fake text scored %.3f", sk)
	}
}

func TestMetricsKnownValues(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.3, 0.1}
	labels := []bool{true, false, true, false}
	ev := Metrics(scores, labels)
	// preds: T T F F -> tp=1 fp=1 fn=1 tn=1.
	if ev.Accuracy != 0.5 || ev.Precision != 0.5 || ev.Recall != 0.5 {
		t.Fatalf("ev=%+v", ev)
	}
	if ev.F1 != 0.5 {
		t.Fatalf("f1=%f", ev.F1)
	}
}

func TestAUCPerfectAndInverted(t *testing.T) {
	perfect := Metrics([]float64{0.9, 0.8, 0.2, 0.1}, []bool{true, true, false, false})
	if perfect.AUC != 1 {
		t.Fatalf("perfect AUC=%f", perfect.AUC)
	}
	inverted := Metrics([]float64{0.1, 0.2, 0.8, 0.9}, []bool{true, true, false, false})
	if inverted.AUC != 0 {
		t.Fatalf("inverted AUC=%f", inverted.AUC)
	}
	ties := Metrics([]float64{0.5, 0.5, 0.5, 0.5}, []bool{true, true, false, false})
	if ties.AUC != 0.5 {
		t.Fatalf("all-ties AUC=%f want 0.5", ties.AUC)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	ev := Metrics(nil, nil)
	if ev.Accuracy != 0 || ev.AUC != 0 {
		t.Fatalf("ev=%+v", ev)
	}
	onlyPos := Metrics([]float64{0.9}, []bool{true})
	if onlyPos.AUC != 0 {
		t.Fatalf("single-class AUC=%f", onlyPos.AUC)
	}
}

func TestLRDeterministic(t *testing.T) {
	train, test := trainTest(t, 6, 300, 300)
	run := func() float64 {
		lr := NewLogisticRegression()
		lr.Train(train)
		ev, _ := Evaluate(lr, test)
		return ev.AUC
	}
	if run() != run() {
		t.Fatal("LR training not deterministic")
	}
}

// TestFeaturizeMatchesNgrams: the featurizer hashes n-grams in place; it
// must count exactly what hashing ngrams' strings counts, in index order.
func TestFeaturizeMatchesNgrams(t *testing.T) {
	texts := []string{"", "7341", "Shocking: the 2019 budget rose 12 percent, 12 PERCENT!", "a b a b a"}
	for _, s := range corpus.NewGenerator(7).Generate(20, 20).Statements {
		texts = append(texts, s.Text)
	}
	for _, text := range texts {
		grams := ngrams(text)
		want := map[int32]float64{}
		for _, g := range grams {
			want[int32(fnv32(g)%hashDim)]++
		}
		for k := range want {
			want[k] /= float64(len(grams))
		}
		got := featurize(text)
		for i, e := range got {
			if i > 0 && e.index <= got[i-1].index {
				t.Fatalf("%q: index %d after %d", text, e.index, got[i-1].index)
			}
			if e.index >= hashDim {
				continue
			}
			if want[e.index] != e.value {
				t.Fatalf("%q: feature %d = %v, want %v", text, e.index, e.value, want[e.index])
			}
			delete(want, e.index)
		}
		if len(want) != 0 {
			t.Fatalf("%q: features %v missing", text, want)
		}
	}
}

// TestLRBitIdentical: the weights of two trainings on the same statements
// agree bit for bit, and so does every score of one text. The model's score
// feeds a ranking that moves stakes; two processes must compute the same.
func TestLRBitIdentical(t *testing.T) {
	train, test := trainTest(t, 8, 300, 300)
	a, b := NewLogisticRegression(), NewLogisticRegression()
	if err := a.Train(train); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(train); err != nil {
		t.Fatal(err)
	}
	for i := range a.weights {
		if math.Float64bits(a.weights[i]) != math.Float64bits(b.weights[i]) {
			t.Fatalf("weight %d: %v and %v", i, a.weights[i], b.weights[i])
		}
	}
	text := test[0].Text
	first, err := a.Score(text)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, _ := a.Score(text)
		if other, _ := b.Score(text); math.Float64bits(got) != math.Float64bits(first) || math.Float64bits(other) != math.Float64bits(first) {
			t.Fatalf("call %d scores %v and %v, first %v", i, got, other, first)
		}
	}
}

// BenchmarkLogisticRegressionTrain trains on the daemon's boot set: 1 000
// statements of corpus seed 1.
func BenchmarkLogisticRegressionTrain(b *testing.B) {
	c := corpus.NewGenerator(1).Generate(500, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewLogisticRegression().Train(c.Statements); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogisticRegressionScore(b *testing.B) {
	c := corpus.NewGenerator(1).Generate(500, 500)
	lr := NewLogisticRegression()
	if err := lr.Train(c.Statements); err != nil {
		b.Fatal(err)
	}
	text := c.Statements[10].Text
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr.Score(text)
	}
}

func BenchmarkNaiveBayesTrain(b *testing.B) {
	c := corpus.NewGenerator(1).Generate(500, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb := NewNaiveBayes()
		nb.Train(c.Statements)
	}
}

func BenchmarkNaiveBayesScore(b *testing.B) {
	c := corpus.NewGenerator(1).Generate(500, 500)
	nb := NewNaiveBayes()
	nb.Train(c.Statements)
	text := c.Statements[10].Text
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Score(text)
	}
}
