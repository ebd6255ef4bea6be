package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/repro_golden.txt from the current drivers")

const reproGoldenPath = "testdata/repro_golden.txt"

func pair[A, B any](a A, b B, err error) (any, error) { return [2]any{a, b}, err }

// reproDrivers is every figure, table and ablation driver of a paper
// reproduction, called with the arguments the repro benchmark uses. digest
// is hex(sha256(json.Marshal(rows))[:16]). For the first 18 drivers it is
// the digest the benchmark pins, so the readable golden and the
// benchmark's pin cannot drift apart. carry_chains (Section III) is not
// part of the benchmark's repro workload; its digest is pinned only here.
var reproDrivers = []struct {
	name, digest string
	call         func(Config) (any, error)
}{
	{"fig1", "0ed99a1e8e4bb18ed68f747228c5f455", func(c Config) (any, error) { return Fig1(c) }},
	{"fig2", "87c2cdfd86036bdc26d7773d2fda031b", func(c Config) (any, error) { return Fig2(c, 37, 30) }},
	{"fig3", "42341bf03947bbff09a1816d03919983", func(c Config) (any, error) { return Fig3(c) }},
	{"fig5", "b7e0dfcc60332b3c6a2553321044d5ba", func(c Config) (any, error) { return Fig5(c, nil) }},
	{"fig6", "57cee0d7b3e8ed00870e9d5a269cecea", func(c Config) (any, error) { return Fig6(c) }},
	{"fig7", "6dfad802261dbd4cef3885f9b4a337f4", func(c Config) (any, error) { return pair(Fig7(c)) }},
	{"perf_overhead", "54294a244bb8ce687dce27ca3db3b192", func(c Config) (any, error) { return PerfOverhead(c) }},
	{"power_validation", "b4bd6db5876abe83625ba894728a865b", func(c Config) (any, error) { return pair(PowerValidation(c, 0.06)) }},
	{"approx", "50e7f1414e08b8c0dca613ee226487f1", func(c Config) (any, error) { return ApproximateAdderStudy(c) }},
	{"ablation_peek", "b290852bec3dbece322c6f7c5e0c6649", func(c Config) (any, error) { return AblationPeek(c) }},
	{"ablation_contention", "4e842ac792f41beeabde8a699ccd3817", func(c Config) (any, error) { return AblationContention(c) }},
	{"ablation_crf_size", "d579098b12a9c3a05dbcd6f371a42ae6", func(c Config) (any, error) { return AblationCRFSize(c, nil) }},
	{"ablation_sharing", "20dc44d1b4d8af6cabe863b2429d0b47", func(c Config) (any, error) { return AblationSharing(c) }},
	{"ablation_xor_hash", "84a0e18a8fef491b85a6bc486460c351", func(c Config) (any, error) { return AblationXORHash(c) }},
	{"ablation_history_depth", "ea403d40981d6f9bc5693f4e04fe883a", func(c Config) (any, error) { return AblationHistoryDepth(c) }},
	{"slice_width_dse", "b1350a2bbcfe6cbb5d734392b4df28eb", func(Config) (any, error) { return pair(SliceWidthDSE()) }},
	{"overheads", "3863c861abbe59790dd8b4458057a076", func(Config) (any, error) { return Overheads(0) }},
	{"technology_scaling", "17e0b1526d994b53715a519cb262d4cc", func(Config) (any, error) { return TechnologyScaling(nil) }},
	{"carry_chains", "89f720bf3e54bf057882ba4c39924eb8", func(c Config) (any, error) { return CarryChains(c) }},
}

// TestReproGolden pins the exact rows of every reproduction driver at
// Default() in testdata/repro_golden.txt, one `<name>\t<json rows>` line
// per driver. Any change meant to leave the paper's results alone must
// leave this file untouched; regenerate it with -update-golden only for a
// deliberate model change, and then re-pin the digests here and in the
// benchmark too.
func TestReproGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every reproduction driver at scale 1")
	}
	cfg := Default()
	got := make([]string, len(reproDrivers))
	for i, d := range reproDrivers {
		rows, err := d.call(cfg)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		sum := sha256.Sum256(b)
		if digest := hex.EncodeToString(sum[:16]); digest != d.digest {
			t.Errorf("%s: rows digest %s, pinned %s", d.name, digest, d.digest)
		}
		got[i] = d.name + "\t" + string(b)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(reproGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reproGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(reproGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden has %d drivers, the reproduction has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s rows differ:\n got  %s\n want %s", reproDrivers[i].name, got[i], want[i])
		}
	}
}
