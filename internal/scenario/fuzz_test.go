package scenario

import (
	"reflect"
	"testing"
)

// FuzzParseSpec feeds ParseSpec arbitrary bytes, seeded with every
// builtin's -dump output and one spec naming a retired edge mode. Nothing
// may panic, and a spec that is accepted must survive its own round trip:
// re-marshalled and re-parsed it is accepted again and equal, so defaults
// filled in by normalize are stable and no field is lost in the JSON form.
func FuzzParseSpec(f *testing.F) {
	for _, name := range Names() {
		spec, err := Builtin(name, 256, 1)
		if err != nil {
			f.Fatal(err)
		}
		data, err := spec.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","n":64,"topology":{"edges":"periodic"},"phases":[{"name":"p","rounds":5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		out, err := spec.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("accepted spec rejected after a round trip: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("spec changed across a round trip:\n%+v\nvs\n%+v", spec, back)
		}
	})
}
