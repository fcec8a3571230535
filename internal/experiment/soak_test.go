package experiment

import (
	"bytes"
	"context"
	"testing"
)

// TestSoakQuickVerdict: the soak's acceptance contract on the sim backend is
// its verdict — the full fault plan executes, churn runs, the standing
// invariants hold at every period, honest nodes survive every
// crash/partition/burst, and the freerider cohort is still expelled.
func TestSoakQuickVerdict(t *testing.T) { passes(t, "soak", quick()) }

// TestSoakShardInvariant runs the same quick soak on 1 and 4 engine shards
// and requires identical documents — the fault plane applies everything from
// the engine's global phase, so sharding must not change a single byte.
func TestSoakShardInvariant(t *testing.T) {
	p := quick()
	p.Shards = 1
	one := encodeRun(t, "soak", p)
	p.Shards = 4
	if four := encodeRun(t, "soak", p); !bytes.Equal(one, four) {
		t.Fatalf("soak diverged across shard counts:\n--- 1 shard ---\n%s--- 4 shards ---\n%s", one, four)
	}
}

// TestSoakUnknownAttack pins the attack-name validation.
func TestSoakUnknownAttack(t *testing.T) {
	p := quick()
	p.Filter = "ddos"
	if _, err := soak.Run(context.Background(), p, nil); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

// TestSoakAltAttacks runs the two non-default attacks: the soak must hold
// its standing invariants and its no-honest-expulsion oracle under
// bad-mouthing, and the stretch cohort must not destabilize the stream.
func TestSoakAltAttacks(t *testing.T) {
	for _, attack := range []string{"blame-spam", "period-stretch"} {
		t.Run(attack, func(t *testing.T) {
			p := quick()
			p.Filter = attack
			passes(t, "soak", p)
		})
	}
}
