package netsim

import "time"

// CrashWindow takes one node offline for a span: it neither sends nor
// receives, and in-flight messages addressed to it are lost. This is how
// the §V-C validator-#1 outage is injected (core.DeploymentOutage).
type CrashWindow struct {
	Node NodeID
	// From is the window start relative to the scenario start.
	From     time.Duration
	Duration time.Duration
}

// PartitionWindow severs every link between group A and group B (both
// directions) for a span; traffic within each group is unaffected.
type PartitionWindow struct {
	A, B []NodeID
	// From is the window start relative to the scenario start.
	From     time.Duration
	Duration time.Duration
}

// ScheduleFaults arms the config's crash and partition windows on the
// scheduler, relative to start. Call once after wiring the nodes.
func (n *Network) ScheduleFaults(start time.Time) {
	for _, c := range n.cfg.Crashes {
		c := c
		n.sched.At(start.Add(c.From), func() { n.Crash(c.Node) })
		n.sched.At(start.Add(c.From+c.Duration), func() { n.Heal(c.Node) })
	}
	for _, p := range n.cfg.Partitions {
		p := p
		n.sched.At(start.Add(p.From), func() { n.Partition(p.A, p.B) })
		n.sched.At(start.Add(p.From+p.Duration), func() { n.HealPartition(p.A, p.B) })
	}
}

// Crash takes a node offline immediately.
func (n *Network) Crash(id NodeID) {
	nd, ok := n.nodes[id]
	if !ok || nd.crashed {
		return
	}
	nd.crashed = true
}

// Heal brings a crashed node back online.
func (n *Network) Heal(id NodeID) {
	nd, ok := n.nodes[id]
	if !ok || !nd.crashed {
		return
	}
	nd.crashed = false
}

// Partition severs groups a and b immediately.
func (n *Network) Partition(a, b []NodeID) {
	n.partitions = append(n.partitions, activePartition{a: nodeSet(a), b: nodeSet(b)})
}

// HealPartition removes the first active partition matching the groups.
func (n *Network) HealPartition(a, b []NodeID) {
	sa, sb := nodeSet(a), nodeSet(b)
	for i, p := range n.partitions {
		if setsEqual(p.a, sa) && setsEqual(p.b, sb) {
			n.partitions = append(n.partitions[:i], n.partitions[i+1:]...)
			break
		}
	}
}

func nodeSet(ids []NodeID) map[NodeID]bool {
	m := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func setsEqual(a, b map[NodeID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
