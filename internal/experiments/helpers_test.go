package experiments

import (
	"popnaming/internal/core"
	"popnaming/internal/naming"
	"popnaming/internal/sched"
)

func protoAsym(p int) core.Protocol { return naming.NewAsymmetric(p) }

func schedRandom(n int, leader bool, seed int64) sched.Scheduler {
	return sched.NewRandom(n, leader, seed)
}
