package experiments

import "testing"

func TestSuiteKeysUniqueAndTagged(t *testing.T) {
	seenKey := map[string]bool{}
	seenTag := map[string]bool{}
	seenJSON := map[string]bool{}
	for _, e := range Suite() {
		if e.Key == "" || e.Tag == "" || e.Description == "" || e.JSON == "" || e.Run == nil || e.Render == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
		if seenKey[e.Key] {
			t.Fatalf("duplicate key %q", e.Key)
		}
		if seenTag[e.Tag] {
			t.Fatalf("duplicate tag %q", e.Tag)
		}
		if seenJSON[e.JSON] {
			t.Fatalf("duplicate JSON name %q", e.JSON)
		}
		seenKey[e.Key] = true
		seenTag[e.Tag] = true
		seenJSON[e.JSON] = true
	}
}

func TestSuiteLookup(t *testing.T) {
	e, ok := SuiteLookup("separation")
	if !ok || e.Tag != "E11" {
		t.Fatalf("SuiteLookup(separation) = %+v, %v", e, ok)
	}
	if _, ok := SuiteLookup("nonsense"); ok {
		t.Fatal("SuiteLookup(nonsense) should fail")
	}
}

func TestTable1OnCellAndTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 reproduction is slow")
	}
	var seen []int
	cells := Table1(Table1Options{P: 4, ModelCheckP: 2, Budget: 2_000_000, Seed: 1,
		OnCell: func(i int, c Cell) {
			seen = append(seen, i)
			if c.WallNS <= 0 {
				t.Errorf("cell %d has WallNS = %d", i, c.WallNS)
			}
		}})
	if len(cells) != 9 || len(seen) != 9 {
		t.Fatalf("cells=%d callbacks=%d, want 9/9", len(cells), len(seen))
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("OnCell order %v", seen)
		}
	}
}
