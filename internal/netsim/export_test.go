package netsim

// HostDown reports whether the host is currently crashed via SetHostDown.
func (n *Network) HostDown(host string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults.downHosts[host]
}
