package workloads

import (
	"fmt"

	"gem5prof/internal/isa"
)

func init() {
	register(Spec{
		Name:         "sieve",
		Suite:        "cpp",
		DefaultScale: 8192,
		Build:        buildSieve,
	})
}

// sieveMaxScale is the largest sieve size whose i*i (for i < scale) fits
// in a 32-bit register.
const sieveMaxScale = 65536

// buildSieve generates the Sieve of Eratosthenes counting primes below
// scale, the "simple C++ program" the paper runs on gem5-on-FireSim.
func buildSieve(scale int) (*isa.Program, uint32, error) {
	if scale < 4 {
		return nil, 0, fmt.Errorf("workloads: sieve scale %d too small", scale)
	}
	if scale > sieveMaxScale {
		return nil, 0, fmt.Errorf("workloads: sieve scale %d above %d (i*i overflows 32 bits)", scale, sieveMaxScale)
	}
	src := prologue() + fmt.Sprintf(`
	la   s0, flags
	li   s1, %d          # N
	li   t0, 2           # i
	li   a0, 0           # prime count
outer:
	bge  t0, s1, done
	add  t1, s0, t0
	lbu  t2, 0(t1)
	bne  t2, x0, skip
	addi a0, a0, 1       # found a prime
	mul  t3, t0, t0      # j = i*i
mark:
	bgeu t3, s1, skip    # unsigned: i*i passes 2^31 from i = 46341
	add  t4, s0, t3
	li   t5, 1
	sb   t5, 0(t4)
	add  t3, t3, t0
	j    mark
skip:
	addi t0, t0, 1
	j    outer
done:
`, scale) + epilogue() + fmt.Sprintf(`
flags:
	.space %d
`, scale)

	p, err := mustBuild("sieve", src)
	if err != nil {
		return nil, 0, err
	}
	return p, sieveRef(scale), nil
}

// sieveRef is the Go reference model.
func sieveRef(n int) uint32 {
	flags := make([]bool, n)
	count := uint32(0)
	for i := 2; i < n; i++ {
		if flags[i] {
			continue
		}
		count++
		for j := i * i; j < n; j += i {
			flags[j] = true
		}
	}
	return count
}
