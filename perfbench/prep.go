package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/liberty"
	"repro/internal/spef"
	"repro/internal/sta"
	"repro/internal/vlog"
	"repro/internal/workload"
)

// Input file names inside a run's directory.
const (
	fileVerilog = "design.v"
	fileSPEF    = "design.spef"
	fileTiming  = "design.win"
	fileLib     = "cells.nlib"
	fileRef     = "reference.digest"
	fileReport  = "report.json"
)

// fabricSeed generates the fixpoint_fabric design.
const fabricSeed = 1

// prepare writes a workload's inputs to cfg.dir: the design as the
// .v/.spef/.win files sna reads, and for signoff_bus the cell library and
// the digest of analysing the generated design in memory.
func prepare(ctx context.Context, cfg *config) error {
	var (
		g   *workload.Generated
		err error
	)
	switch cfg.workload {
	case "signoff_bus":
		// workload.Scale staggers windows deterministically: the seed does
		// not change the bus.
		g, err = workload.Scale(workload.ScaleSpec{Nets: cfg.busNets, Seed: cfg.seed})
	case "fixpoint_fabric":
		// The fabric is fixed too: fabrics drawn from different seeds
		// differ by over 20% in fixpoint work, more than the run-to-run
		// noise the benchmark must stay under. The seed varies the what-if
		// padding instead.
		g, err = workload.Fabric(workload.FabricSpec{Width: cfg.fabricWidth, Levels: cfg.fabricLevs, Seed: fabricSeed})
	default:
		return fmt.Errorf("no inputs to prepare for %s", cfg.workload)
	}
	if err != nil {
		return err
	}
	lib := liberty.Generic()
	write := func(name string, fn func(io.Writer) error) {
		if err != nil {
			return
		}
		var f *os.File
		if f, err = os.Create(filepath.Join(cfg.dir, name)); err != nil {
			return
		}
		if err = fn(f); err == nil {
			// Flush now, so no writeback of the inputs competes with the
			// timed work that follows.
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	write(fileVerilog, func(w io.Writer) error { return vlog.Write(w, g.Design) })
	write(fileSPEF, func(w io.Writer) error { return spef.Write(w, g.Paras) })
	write(fileTiming, func(w io.Writer) error { return sta.WriteInputTiming(w, g.Inputs) })
	write(fileLib, func(w io.Writer) error { return liberty.Write(w, lib) })
	if err != nil || cfg.workload != "signoff_bus" {
		return err
	}
	b, err := g.Bind(lib)
	if err != nil {
		return err
	}
	opts := signoffOptions(g.Inputs)
	res, err := core.AnalyzeCtx(ctx, b, opts)
	if err != nil {
		return err
	}
	dres, err := core.AnalyzeDelayCtx(ctx, b, opts)
	if err != nil {
		return err
	}
	write(fileRef, func(w io.Writer) error {
		_, err := io.WriteString(w, digestCore(res, dres))
		return err
	})
	return err
}

// generate runs prepare in a child process, the benchmark's own binary.
// Generating the 100k-net bus in the measured process raised the
// signoff_bus peak_rss_mb median from 634-677 MB to 722-743 MB on the
// reference host, even though the mark is reset before every pass.
func generate(ctx context.Context, cfg *config) error {
	cmd := exec.CommandContext(ctx, cfg.self, "prep",
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10), "-dir", cfg.dir,
		"-bus-nets", strconv.Itoa(cfg.busNets),
		"-fabric-width", strconv.Itoa(cfg.fabricWidth), "-fabric-levels", strconv.Itoa(cfg.fabricLevs))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	return nil
}

func runPrep(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench prep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{sizes: fullSizes}
	fs.StringVar(&cfg.workload, "workload", "", "workload")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed")
	fs.StringVar(&cfg.dir, "dir", "", "output directory")
	fs.IntVar(&cfg.busNets, "bus-nets", cfg.busNets, "signoff_bus net count")
	fs.IntVar(&cfg.fabricWidth, "fabric-width", cfg.fabricWidth, "fixpoint_fabric width")
	fs.IntVar(&cfg.fabricLevs, "fabric-levels", cfg.fabricLevs, "fixpoint_fabric levels")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := prepare(context.Background(), cfg); err != nil {
		fmt.Fprintln(stderr, "perfbench prep:", err)
		return 1
	}
	return 0
}
