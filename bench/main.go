// Command bench is the end-to-end benchmark of the Hermes service: four
// viewer workloads on the real server, client and cluster packages over the
// network simulator, with a per-layer budget measured from outside. See
// README.md in this directory.
//
//	bench -workload lecture_private -seed 1            end-to-end metrics
//	bench -workload lecture_private -seed 1 -trace 1   per-layer metrics
//	bench -agree                                       the noise floor
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: lecture_private, lecture_shared, connect_storm or flash_failover")
		seed    = flag.Uint64("seed", 1, "seed of the arrival schedule, the demand and the simulated network")
		seconds = flag.Int("seconds", defaultSeconds, "host seconds of timed repetitions to aim for (never fewer than 7 repetitions)")
		trace   = flag.Int("trace", 0, "1 = switch the interposers on and report the per-layer metrics")
		agree   = flag.Bool("agree", false, "run every workload twice and compare the two sets against the bounds")
		mani    = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it")
		all     = flag.Bool("readings", false, "end the output with every end-to-end reading as JSON instead of the result line (-agree reads its child processes this way)")
	)
	flag.Parse()
	if *mani {
		fmt.Print(buildManifest())
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *agree, *all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced, agree, readings bool) error {
	budget := time.Duration(seconds) * time.Second
	// Run from the repository root (run.sh) or from bench/ (go run -C bench).
	root := "."
	if _, err := os.Stat("lessons"); err != nil {
		root = ".."
	}
	base, err := loadLessons(root)
	if err != nil {
		return err
	}
	if agree {
		return runAgree(os.Stdout, seed, seconds)
	}
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	res, err := runWorkload(wl, base, seed, budget, traced)
	if err != nil {
		return err
	}
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res.header(os.Stdout)
	res.printEndToEnd(os.Stdout)
	var layers []layerReading
	if traced {
		micro, err := runMicro(base)
		if err != nil {
			return err
		}
		layers = res.perLayer(micro)
		printPerLayer(os.Stdout, layers)
	}
	for _, rd := range res.endToEnd() {
		if rd.everywhere && (math.IsNaN(rd.value) || rd.value <= 0) {
			return fmt.Errorf("%s has no value: no session got that far", rd.name)
		}
	}
	if readings {
		fmt.Println(res.readingsLine())
	} else {
		fmt.Println(res.jsonLine(layers))
	}
	return nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}
