package realtrain

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"teco/internal/checkpoint"
)

var update = flag.Bool("update", false, "write the trainer snapshot museum (write-once: never to make a failing test pass)")

// TestConfigTagCoversEveryField: every Config field is named exactly once,
// either hashed by configTag (tagFields) or explicitly excluded
// (tagExcluded), so a new field cannot silently stay out of the tag.
func TestConfigTagCoversEveryField(t *testing.T) {
	named := map[string]int{}
	for _, f := range (Config{}).tagFields() {
		named[f.name]++
	}
	for _, name := range tagExcluded {
		named[name]++
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if named[name] != 1 {
			t.Errorf("Config.%s is named %d times by tagFields and tagExcluded, want once", name, named[name])
		}
		delete(named, name)
	}
	for name := range named {
		t.Errorf("%q names no Config field", name)
	}
}

// TestConfigTag: an explicit default and the excluded fields move no tag;
// moving any tagged field off its default gives a tag of its own.
func TestConfigTag(t *testing.T) {
	def := Config{}.withDefaults()
	tag := Config{}.configTag()
	for _, c := range []Config{def, {Workers: 8}, {SDCChecks: true}} {
		if c.configTag() != tag {
			t.Errorf("%+v moved the tag of the default config", c)
		}
	}
	seen := map[uint64]string{tag: "default"}
	for _, f := range def.tagFields() {
		c := def
		v := reflect.ValueOf(&c).Elem().FieldByName(f.name)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(2 * v.Float())
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString("attention")
		default:
			t.Fatalf("Config.%s: no mutation for kind %s", f.name, v.Kind())
		}
		got := c.configTag()
		if prev, dup := seen[got]; dup {
			t.Errorf("moving %s gives the tag of %s", f.name, prev)
		}
		seen[got] = f.name
	}
}

// TestConfigTagIgnoresDefaultedSyntheticField: a field added to tagFields
// later — anywhere in the list — leaves every existing tag where it was
// while it holds its default, whatever that default is.
func TestConfigTagIgnoresDefaultedSyntheticField(t *testing.T) {
	for _, c := range []Config{{}, {Seed: 3, DBA: true, Arch: "stack", Layers: 3}} {
		fields, defaults := c.withDefaults().tagFields(), Config{}.withDefaults().tagFields()
		want := c.configTag()
		if got := tagOf(fields, defaults); got != want {
			t.Fatalf("tagOf %x != configTag %x", got, want)
		}
		for _, at := range []int{0, len(fields) / 2, len(fields)} {
			for _, v := range []any{0, 0.9, false, "", "adamw"} {
				synth := tagField{"Synthetic", v}
				got := tagOf(slices.Insert(slices.Clone(fields), at, synth), slices.Insert(slices.Clone(defaults), at, synth))
				if got != want {
					t.Errorf("%+v: synthetic field %v at %d moved the tag %x -> %x", c, v, at, want, got)
				}
			}
		}
	}
}

// TestNewTrainerRejectsInvalidConfig: a configuration the trainer cannot
// run as written is an error from every constructor, never a panic deep
// in a kernel or a silently different run.
func TestNewTrainerRejectsInvalidConfig(t *testing.T) {
	for _, c := range []Config{
		{Hidden: -4},
		{DBA: true, DirtyBytes: 5},
		{DBA: true, DirtyBytes: -1},
		{Batch: -3},
		{Steps: -4},
		{PreSteps: -1},
		{SampleEvery: -1},
		{Arch: "stack", Layers: -2},
		{Arch: "rnn"},
		{LR: -1},
		{FineLR: math.NaN()},
		{ClipNorm: math.Inf(1)},
		{LR: math.Inf(-1)},
	} {
		if _, err := NewTrainer(c); err == nil {
			t.Errorf("NewTrainer(%+v) accepted", c)
		}
		if _, err := NewTrainerFromSnapshot(c, &checkpoint.Snapshot{ConfigTag: c.configTag(), Seed: c.Seed}); err == nil {
			t.Errorf("NewTrainerFromSnapshot(%+v) accepted", c)
		}
	}
	// Negative ActAfterSteps is the documented paper default, not an error.
	if _, err := NewTrainer(Config{Steps: 1, PreSteps: 1, DBA: true, ActAfterSteps: -1}); err != nil {
		t.Fatal(err)
	}
}

// The snapshot museum: testdata/museum/trainer.teco is a trainer snapshot
// taken at step museumAt of museumConfig by the commit that gave configTag
// its named-field form. Every later build must restore it and finish the
// run on the pinned final-loss bits. A change that fails this test has
// orphaned stored checkpoints (moved the tag or the format) or changed the
// numerics; write-once — do not rewrite it to make the test pass.
var museumConfig = Config{
	Steps: 8, PreSteps: 20, Hidden: 16, Batch: 4, Seed: 42,
	DBA: true, ActAfterSteps: 2, SampleEvery: 2,
}

const (
	museumPath      = "testdata/museum/trainer.teco"
	museumAt        = 4
	museumFinalLoss = 0x400068e4ea2f7cdc
)

func TestSnapshotMuseum(t *testing.T) {
	if *update {
		tr, err := NewTrainer(museumConfig)
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, tr, museumAt)
		if err := os.MkdirAll(filepath.Dir(museumPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(museumPath, tr.Snapshot().Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(museumPath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainerFromSnapshot(museumConfig, snap)
	if err != nil {
		t.Fatalf("museum snapshot no longer restores: %v", err)
	}
	if tr.StepCount() != museumAt {
		t.Fatalf("museum snapshot at step %d, want %d", tr.StepCount(), museumAt)
	}
	runTo(t, tr, museumConfig.Steps)
	if got := math.Float64bits(tr.Result().FinalLoss); got != museumFinalLoss {
		t.Fatalf("resumed run's final loss bits %#x, want %#x", got, uint64(museumFinalLoss))
	}
}
