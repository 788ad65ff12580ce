package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minTailSamples is the sample count the tail percentile needs: the
// highest percentile reported must have at least ten samples beyond it,
// and latency_p95_ms leaves 5% of the samples beyond it.
const minTailSamples = 200

// percentile returns the Harrell–Davis estimate of the q-quantile of
// sorted values: a weighted mean of the order statistics, the i-th of n
// weighted by the mass a Beta(q(n+1), (1−q)(n+1)) distribution puts on
// ((i−1)/n, i/n]. A workload mixes strata whose latencies differ by
// steps, and a quantile near a step jumps from one stratum to the next
// with a few operations' noise when it is read off a single order
// statistic; the weighted mean moves smoothly instead. Weights more than
// 12 standard deviations of that Beta from q are below 1e-30 and are
// skipped.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sd := math.Sqrt(q * (1 - q) / float64(n+2))
	lo := max(0, int(math.Floor((q-12*sd)*float64(n))))
	hi := min(n, int(math.Ceil((q+12*sd)*float64(n))))
	first := betaInc(a, b, float64(lo)/float64(n))
	prev, sum := first, 0.0
	for i := lo + 1; i <= hi; i++ {
		cdf := betaInc(a, b, float64(i)/float64(n))
		sum += (cdf - prev) * sorted[i-1]
		prev = cdf
	}
	return sum / (prev - first)
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

// betaFraction evaluates the continued fraction of betaInc by the
// modified Lentz method; it needs O(√max(a, b)) terms.
func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 1e6; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}

// tailPercentile returns the 95th percentile, refusing samples too small
// to leave ten values beyond it.
func tailPercentile(sorted []float64) (float64, error) {
	if len(sorted) < minTailSamples {
		return 0, fmt.Errorf("latency_p95_ms needs at least %d samples, have %d", minTailSamples, len(sorted))
	}
	return percentile(sorted, 0.95), nil
}

// quartiles returns the first and third quartiles of values the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), so spreads read the same here and in the acceptance check.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// median of values (mean of the middle two for an even count).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler reads the runtime's live-heap metric every 10 ms until
// stop returns the samples.
type heapSampler struct {
	mu      sync.Mutex
	samples []heapSample
	done    chan struct{}
	wg      sync.WaitGroup
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.observe()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := liveHeap()
	h.mu.Lock()
	h.samples = append(h.samples, heapSample{at: time.Now(), bytes: v})
	h.mu.Unlock()
}

// stop ends sampling and returns the samples in time order.
func (h *heapSampler) stop() []heapSample {
	close(h.done)
	h.wg.Wait()
	h.observe()
	return h.samples
}

// maxLive is the largest sample taken in [from, to], or the last one
// before from when none was (the metric holds its value between
// collections).
func maxLive(samples []heapSample, from, to time.Time) uint64 {
	var peak uint64
	for _, s := range samples {
		if s.at.After(to) {
			break
		}
		if s.at.Before(from) {
			peak = s.bytes
			continue
		}
		peak = max(peak, s.bytes)
	}
	return peak
}

// peakLive is the largest sample.
func peakLive(samples []heapSample) uint64 {
	var peak uint64
	for _, s := range samples {
		peak = max(peak, s.bytes)
	}
	return peak
}
