package mod

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// testModuli spans the magnitudes used in practice: small toy primes,
// 36-bit SHARP-style primes, and near-62-bit primes.
var testModuli = []uint64{
	3, 17, 257, 65537,
	(1 << 36) - 5*(1<<20) + 1, // not necessarily prime; New does not require primality
	68719403009,               // 36-bit NTT prime (q ≡ 1 mod 2^17)
	1152921504606830593,       // 60-bit NTT prime
	4611686018427322369,       // 62-bit prime candidate
}

func TestNewRejectsOutOfRange(t *testing.T) {
	for _, q := range []uint64{0, 1, 1 << 62, 1<<62 + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", q)
				}
			}()
			New(q)
		}()
	}
}

func TestAddSubNeg(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		rng := rand.New(rand.NewSource(int64(q)))
		for i := 0; i < 200; i++ {
			x := rng.Uint64() % q
			y := rng.Uint64() % q
			if got, want := m.Add(x, y), (x+y)%q; got != want {
				t.Fatalf("q=%d Add(%d,%d)=%d want %d", q, x, y, got, want)
			}
			if got, want := m.Sub(x, y), (x+q-y)%q; got != want {
				t.Fatalf("q=%d Sub(%d,%d)=%d want %d", q, x, y, got, want)
			}
			if got := m.Add(x, m.Neg(x)); got != 0 {
				t.Fatalf("q=%d x + (-x) = %d", q, got)
			}
		}
	}
}

func TestMulMatchesBig(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		bq := new(big.Int).SetUint64(q)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 500; i++ {
			x := rng.Uint64() % q
			y := rng.Uint64() % q
			want := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
			want.Mod(want, bq)
			if got := m.Mul(x, y); got != want.Uint64() {
				t.Fatalf("q=%d Mul(%d,%d)=%d want %d", q, x, y, got, want.Uint64())
			}
		}
	}
}

func TestMulEdgeCases(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		cases := [][2]uint64{{0, 0}, {0, q - 1}, {q - 1, q - 1}, {1, q - 1}, {q / 2, 2}}
		for _, c := range cases {
			hi, lo := bits.Mul64(c[0], c[1])
			want := new(big.Int).SetUint64(hi)
			want.Lsh(want, 64).Add(want, new(big.Int).SetUint64(lo))
			want.Mod(want, new(big.Int).SetUint64(q))
			if got := m.Mul(c[0], c[1]); got != want.Uint64() {
				t.Fatalf("q=%d Mul(%d,%d)=%d want %d", q, c[0], c[1], got, want.Uint64())
			}
		}
	}
}

func TestReduce128MatchesBig(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			hi := rng.Uint64() % q // contract: hi < q
			lo := rng.Uint64()
			want := new(big.Int).SetUint64(hi)
			want.Lsh(want, 64).Add(want, new(big.Int).SetUint64(lo))
			want.Mod(want, new(big.Int).SetUint64(q))
			if got := m.Reduce128(hi, lo); got != want.Uint64() {
				t.Fatalf("q=%d Reduce128(%d,%d)=%d want %d", q, hi, lo, got, want.Uint64())
			}
		}
	}
}

func TestMulShoup(t *testing.T) {
	for _, q := range testModuli {
		m := New(q)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 300; i++ {
			x := rng.Uint64() % q
			w := rng.Uint64() % q
			ws := m.ShoupPrecomp(w)
			if got, want := m.MulShoup(x, w, ws), m.Mul(x, w); got != want {
				t.Fatalf("q=%d MulShoup(%d,%d)=%d want %d", q, x, w, got, want)
			}
		}
	}
}

func TestPowInv(t *testing.T) {
	primes := []uint64{17, 65537, 68719403009, 1152921504606830593}
	for _, q := range primes {
		if !IsPrime(q) {
			t.Fatalf("test modulus %d is not prime", q)
		}
		m := New(q)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 100; i++ {
			x := 1 + rng.Uint64()%(q-1)
			inv := m.Inv(x)
			if m.Mul(x, inv) != 1 {
				t.Fatalf("q=%d Inv(%d)=%d not an inverse", q, x, inv)
			}
			// Fermat: x^(q-1) == 1.
			if m.Pow(x, q-1) != 1 {
				t.Fatalf("q=%d Pow(%d, q-1) != 1", q, x)
			}
		}
		if got := m.Pow(0, 0); got != 1 {
			t.Fatalf("Pow(0,0) = %d, want 1 (empty product)", got)
		}
	}
}

func TestIsPrimeSmall(t *testing.T) {
	known := map[uint64]bool{
		0: false, 1: false, 2: true, 3: true, 4: false, 5: true,
		25: false, 91: false, 97: true, 561: false /* Carmichael */, 65537: true,
		1<<61 - 1: true /* Mersenne prime M61 */, 1 << 40: false,
	}
	for n, want := range known {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

// Property: Mul distributes over Add, and Barrett agrees with the
// naive big.Int route for arbitrary inputs.
func TestQuickMulDistributes(t *testing.T) {
	q := uint64(1152921504606830593)
	m := New(q)
	f := func(a, b, c uint64) bool {
		a, b, c = a%q, b%q, c%q
		left := m.Mul(a, m.Add(b, c))
		right := m.Add(m.Mul(a, b), m.Mul(a, c))
		return left == right
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubAddRoundTrip(t *testing.T) {
	q := uint64(68719403009)
	m := New(q)
	f := func(a, b uint64) bool {
		a, b = a%q, b%q
		return m.Add(m.Sub(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// sink keeps the benchmark loops' results live; without it the
// compiler may drop the multiplications as dead code.
var sink uint64

func BenchmarkMulBarrett(b *testing.B) {
	m := New(1152921504606830593)
	x, y := uint64(123456789123456), uint64(987654321987654)
	var s uint64
	for i := 0; i < b.N; i++ {
		s = m.Mul(s^x, y)
	}
	sink = s
}

func BenchmarkMulShoup(b *testing.B) {
	m := New(1152921504606830593)
	w := uint64(987654321987654)
	ws := m.ShoupPrecomp(w)
	var s uint64
	for i := 0; i < b.N; i++ {
		s = m.MulShoup(s|1, w, ws)
	}
	sink = s
}
