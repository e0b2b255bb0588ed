package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Error("At wrong")
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Error("Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 9 {
		t.Error("Clone aliases data")
	}
}

func TestMulVecAndMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	x := []float64{5, 6}
	got := a.MulVec(x)
	if got[0] != 17 || got[1] != 39 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: exact solution.
	a := FromRows([][]float64{
		{1, 1, 0},
		{1, 0, 1},
		{0, 1, 1},
	})
	// This is exactly the paper's §2.2 heights system for three landmarks.
	b := []float64{3, 4, 5}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 through noisy points; LS recovers it for symmetric noise.
	a := FromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	b := []float64{1.1, 2.9, 5.1, 6.9}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 0.1 || math.Abs(x[1]-1) > 0.15 {
		t.Errorf("fit = %v, want ≈ [2, 1]", x)
	}
	// Residual should be smaller than for a perturbed solution.
	r0 := Residual(a, x, b)
	r1 := Residual(a, []float64{x[0] + 0.1, x[1]}, b)
	if r0 >= r1 {
		t.Errorf("LS residual %v not minimal (perturbed %v)", r0, r1)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	if _, err := SolveLeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Error("expected ErrSingular for rank-deficient system")
	}
	u := FromRows([][]float64{{1, 2, 3}}) // underdetermined
	if _, err := SolveLeastSquares(u, []float64{1}); err == nil {
		t.Error("expected error for underdetermined system")
	}
	if _, err := SolveLeastSquares(FromRows([][]float64{{1}, {2}}), []float64{1, 2, 3}); err == nil {
		t.Error("expected error for rhs length mismatch")
	}
}

// Property: solving A·x̂ = A·x recovers x for random well-conditioned A.
func TestSolveRecoversKnownSolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		n := 2 + rng.IntN(6)
		m := n + rng.IntN(5)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()*4 - 2
		}
		// Boost the diagonal for conditioning.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+3)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*10 - 5
		}
		b := a.MulVec(x)
		got, err := SolveLeastSquares(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	// Minimize (x−3)² + (y+1)² + 2.
	f := func(v []float64) float64 {
		return (v[0]-3)*(v[0]-3) + (v[1]+1)*(v[1]+1) + 2
	}
	x, fv := NelderMead(f, []float64{0, 0}, &NelderMeadOpts{MaxIter: 500})
	if math.Abs(x[0]-3) > 1e-3 || math.Abs(x[1]+1) > 1e-3 {
		t.Errorf("minimum at %v, want (3, −1)", x)
	}
	if math.Abs(fv-2) > 1e-5 {
		t.Errorf("minimum value %v, want 2", fv)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(v []float64) float64 {
		a := 1 - v[0]
		b := v[1] - v[0]*v[0]
		return a*a + 100*b*b
	}
	x, _ := NelderMead(f, []float64{-1.2, 1}, &NelderMeadOpts{MaxIter: 5000, Tol: 1e-14, Step: 0.5})
	if math.Abs(x[0]-1) > 0.02 || math.Abs(x[1]-1) > 0.02 {
		t.Errorf("Rosenbrock minimum at %v, want (1, 1)", x)
	}
}

func TestNelderMeadDegenerate(t *testing.T) {
	x, fv := NelderMead(func(v []float64) float64 { return 7 }, []float64{1}, nil)
	if len(x) != 1 || fv != 7 {
		t.Errorf("constant function: %v %v", x, fv)
	}
	if got, _ := NelderMead(func(v []float64) float64 { return 0 }, nil, nil); got != nil {
		t.Error("empty x0 should return nil")
	}
}
