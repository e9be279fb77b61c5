package bench

import (
	"reflect"
	"testing"
)

// FuzzParseJobSpec fuzzes the jobs spec grammar: no input may panic the
// parser, every accepted spec must Expand without panicking (Expand may
// still reject unknown names — that is an error, not a crash), and a
// re-parse of the same input must be deterministic.
func FuzzParseJobSpec(f *testing.F) {
	for _, seed := range []string{
		"graphs=torus:400",
		"protocols=mst,domset;graphs=torus:400,random:120;seeds=1,2,5-8",
		"protocols=all;graphs=grid:64",
		"graphs=torus:36;scenario=crash=7@2+seed-faults=0.01",
		"graphs=torus:36;scenario=crash=7@2+drop=0-1@5+fault-seed=-3",
		"graphs=;seeds=--",
		"graphs=torus:400;seeds=9-2",
		"scenario=;graphs=a:1",
		"graphs=torus:9;seeds=9223372036854775806-9223372036854775807",
		"graphs=torus:9;seeds=0-9000000000000000000",
		"graphs=torus:-5",
		"graphs=torus:1000000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseJobSpec(s)
		if err != nil {
			return
		}
		if _, err := spec.Expand(); err != nil {
			_ = err // unknown names are a legitimate rejection
		}
		again, err := ParseJobSpec(s)
		if err != nil {
			t.Fatalf("accepted spec %q failed a second parse: %v", s, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("re-parse of %q is not deterministic: %+v vs %+v", s, spec, again)
		}
	})
}
