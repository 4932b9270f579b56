package serve

import (
	"bytes"
	"errors"
	"net/http"
	"reflect"
	"testing"
)

// FuzzJobSpec holds the job spec boundary to its contract. A body that
// decodes as POST /v1/jobs decodes it (decodeSpec) either is rejected
// by Prepare with a structured 400 or prepares to a spec, and none
// panics.
// Admission is a function of the body: two Prepare calls agree, and the
// normalized Spec prepares again to itself (the result cache keys on
// it). Seed 0 is mapped to 1 first, so the clock cannot make two calls
// differ. The seeds are one body per job kind and engine, plus bodies
// of the removed campaign kind, which admission must reject.
func FuzzJobSpec(f *testing.F) {
	for _, kind := range []string{KindSim, KindBatch, "campaign", KindTable1} {
		for _, engine := range []string{"agent", "count"} {
			f.Add([]byte(`{"kind":"` + kind + `","protocol":"asym","p":8,"n":8,"engine":"` + engine + `","seed":7,"trials":2,"budget":100000}`))
		}
	}
	f.Add([]byte(`{"kind":"table1","p":4,"modelCheckP":2,"budget":2000000,"seed":1}`))
	f.Add([]byte(`{"kind":"batch","protocol":"selfstab","p":6,"n":6,"init":"arbitrary","seed":7,"trials":20,"workers":4}`))
	f.Add([]byte(`{"kind":"campaign","protocol":"asym","p":8,"seed":3,"trials":10,"epochs":5,"corruptK":3}`))
	f.Add([]byte(`{"kind":"sim","protocol":"asym","faults":"@5000:corrupt=3,@conv:crash=1","retries":2,"stall":5000,"trace":true}`))
	f.Add([]byte(`{"kind":"batch","protocol":"asym","engine":"count","p":6,"n":1000000,"trials":4,"shard":{"lo":1,"hi":3}}`))
	f.Add([]byte(`{"kind":"campaign","protocol":"asym","p":8,"n":1}`))
	f.Add([]byte(`{"kind":"sim","protocol":"asym","p":8,"n":3,"sched":"matching"}`))
	f.Add([]byte(`{"kind":"batch","protocol":"asym","p":8,"n":1,"sched":"roundrobin"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if spec.Seed == 0 {
			spec.Seed = 1
		}
		p, err := Prepare(spec)
		p2, err2 := Prepare(spec)
		if err != nil {
			var e *Error
			if !errors.As(err, &e) || e.Status != http.StatusBadRequest || e.Kind == "" {
				t.Fatalf("rejection %#v is not a structured 400", err)
			}
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second Prepare disagrees: %v, then %v", err, err2)
			}
			return
		}
		if err2 != nil || !reflect.DeepEqual(p2.Spec(), p.Spec()) {
			t.Fatalf("second Prepare disagrees: %+v, then %+v (%v)", p.Spec(), p2, err2)
		}
		again, err := Prepare(p.Spec())
		if err != nil {
			t.Fatalf("normalized spec %+v rejected: %v", p.Spec(), err)
		}
		if !reflect.DeepEqual(again.Spec(), p.Spec()) {
			t.Fatalf("normalized spec moved:\n%+v\n%+v", p.Spec(), again.Spec())
		}
	})
}
