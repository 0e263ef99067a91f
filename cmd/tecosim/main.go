// Command tecosim regenerates the paper's tables and figures.
//
// Usage:
//
//	tecosim [-seed N] [-markdown] <experiment>
//	tecosim -list
//
// where <experiment> is one of the ids printed by -list (e.g. table1,
// fig11, lammps) or "all". Every other flag is an experiment knob,
// registered from the knob table in internal/experiments (tecosim -h).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"teco/internal/experiments"
	"teco/internal/profileflags"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tecosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown instead of aligned text")
	list := fs.Bool("list", false, "list experiment ids and exit")
	opt := experiments.Options{Seed: 42}
	experiments.RegisterFlags(fs, &opt)
	prof := profileflags.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tecosim [-seed N] [-markdown] [-workers N] [knob flags] <experiment>\n")
		fmt.Fprintf(stderr, "experiments: %v\n", experiments.IDs())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	tabs, err := experiments.ByID(fs.Arg(0), opt)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, t := range tabs {
		if *markdown {
			t.Markdown(stdout)
		} else {
			t.Render(stdout)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
