package ranksvm

import (
	"math"
	"math/rand"
	"testing"
)

// linearWorld generates groups whose true ranking is w*·x with noise.
func linearWorld(rng *rand.Rand, groups, perGroup int, noise float64) ([]Instance, []float64) {
	wTrue := []float64{2.0, -1.0, 0.5, 0.0}
	var out []Instance
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			x := make([]float64, len(wTrue))
			for d := range x {
				x[d] = rng.NormFloat64()
			}
			label := 0.0
			for d := range x {
				label += wTrue[d] * x[d]
			}
			label += noise * rng.NormFloat64()
			out = append(out, Instance{Features: x, Label: label, Group: g})
		}
	}
	return out, wTrue
}

// pairAccuracy measures the fraction of within-group preference pairs the
// model orders correctly.
func pairAccuracy(m *Model, instances []Instance) float64 {
	correct, total := 0, 0
	for i := range instances {
		for j := range instances {
			if instances[i].Group != instances[j].Group || instances[i].Label <= instances[j].Label {
				continue
			}
			total++
			if m.Score(instances[i].Features) > m.Score(instances[j].Features) {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func TestTrainLinearRecoversRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train, _ := linearWorld(rng, 40, 8, 0.01)
	test, _ := linearWorld(rng, 10, 8, 0.0)
	m, err := Train(train, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := pairAccuracy(m, test); acc < 0.95 {
		t.Fatalf("linear pair accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestTrainLinearWeightDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train, wTrue := linearWorld(rng, 60, 8, 0.01)
	m, err := Train(train, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Signs of learned weights must match the generator for the non-zero
	// dimensions.
	for d, wt := range wTrue {
		if wt == 0 {
			continue
		}
		if m.Weights[d]*wt <= 0 {
			t.Fatalf("weight %d has wrong sign: learned %.3f, true %.3f", d, m.Weights[d], wt)
		}
	}
}

func TestTrainRBFOnNonlinear(t *testing.T) {
	// Ranking by |x|: linearly unlearnable in 1-D, easy for RBF.
	rng := rand.New(rand.NewSource(5))
	gen := func(groups int) []Instance {
		var out []Instance
		for g := 0; g < groups; g++ {
			for i := 0; i < 6; i++ {
				x := rng.NormFloat64() * 2
				out = append(out, Instance{Features: []float64{x}, Label: math.Abs(x), Group: g})
			}
		}
		return out
	}
	train, test := gen(30), gen(10)
	linModel, err := Train(train, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rbfModel, err := Train(train, Options{Kernel: RBF, Gamma: 0.5, C: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	linAcc, rbfAcc := pairAccuracy(linModel, test), pairAccuracy(rbfModel, test)
	if rbfAcc < 0.8 {
		t.Fatalf("RBF accuracy = %.3f, want >= 0.8", rbfAcc)
	}
	if rbfAcc <= linAcc {
		t.Fatalf("RBF (%.3f) should beat linear (%.3f) on |x| ranking", rbfAcc, linAcc)
	}
}

func TestTrainErrorCases(t *testing.T) {
	if _, err := Train(nil, Options{}); err == nil {
		t.Fatal("empty training set should fail")
	}
	// Mismatched feature lengths.
	_, err := Train([]Instance{
		{Features: []float64{1, 2}, Label: 1, Group: 0},
		{Features: []float64{1}, Label: 0, Group: 0},
	}, Options{})
	if err == nil {
		t.Fatal("mismatched dims should fail")
	}
	// All labels equal -> no pairs.
	_, err = Train([]Instance{
		{Features: []float64{1}, Label: 1, Group: 0},
		{Features: []float64{2}, Label: 1, Group: 0},
	}, Options{})
	if err != ErrNoPairs {
		t.Fatalf("expected ErrNoPairs, got %v", err)
	}
	// Pairs never cross groups.
	_, err = Train([]Instance{
		{Features: []float64{1}, Label: 1, Group: 0},
		{Features: []float64{2}, Label: 0, Group: 1},
	}, Options{})
	if err != ErrNoPairs {
		t.Fatalf("cross-group pair formed: %v", err)
	}
}

func TestMaxPairsPerGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train, _ := linearWorld(rng, 10, 10, 0.01)
	m, err := Train(train, Options{MaxPairsPerGroup: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if acc := pairAccuracy(m, train); acc < 0.8 {
		t.Fatalf("capped-pairs accuracy = %.3f", acc)
	}
}

func TestStandardizationInvariance(t *testing.T) {
	// Scaling a feature by 1000 must not change the learned ranking.
	rng := rand.New(rand.NewSource(11))
	train, _ := linearWorld(rng, 40, 8, 0.01)
	scaled := make([]Instance, len(train))
	for i, inst := range train {
		f := make([]float64, len(inst.Features))
		copy(f, inst.Features)
		f[0] *= 1000
		scaled[i] = Instance{Features: f, Label: inst.Label, Group: inst.Group}
	}
	m, err := Train(scaled, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	test := make([]Instance, 0)
	for g := 0; g < 10; g++ {
		for i := 0; i < 6; i++ {
			x := []float64{rng.NormFloat64() * 1000, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			label := 2*x[0]/1000 - x[1] + 0.5*x[2]
			test = append(test, Instance{Features: x, Label: label, Group: g})
		}
	}
	if acc := pairAccuracy(m, test); acc < 0.95 {
		t.Fatalf("scaled-feature accuracy = %.3f", acc)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	train, _ := linearWorld(rng, 20, 6, 0.05)
	m1, _ := Train(train, Options{Seed: 14})
	m2, _ := Train(train, Options{Seed: 14})
	for d := range m1.Weights {
		if m1.Weights[d] != m2.Weights[d] { //kwlint:ignore floatcompare — determinism test asserts bit-exact weights for a fixed seed
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}

func BenchmarkTrainLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	train, _ := linearWorld(rng, 50, 8, 0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(train, Options{Seed: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoreLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	train, _ := linearWorld(rng, 20, 8, 0.05)
	m, _ := Train(train, Options{Seed: 22})
	x := []float64{0.1, 0.2, 0.3, 0.4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Score(x)
	}
}

// A vector summed in runs through AddTerms, each run's sum fed to the next,
// has ScoreBuf's bits: the runtime sums a concept's interestingness terms
// once and its relevance terms per detection.
func TestAddTermsInRunsIsScore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	train, _ := linearWorld(rng, 20, 6, 0.05)
	m, err := Train(train, Options{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range train {
		x := inst.Features
		for cut := 0; cut <= len(x); cut++ {
			runs := m.AddTerms(m.AddTerms(0, 0, x[:cut]), cut, x[cut:])
			if runs != m.Score(x) { //kwlint:ignore floatcompare — the split sum must add the same terms in the same order, so bit-exact equality is the contract
				t.Fatalf("cut at %d: runs sum to %v, Score %v", cut, runs, m.Score(x))
			}
		}
	}
}
