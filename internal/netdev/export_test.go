package netdev

import "repro/internal/topology"

// NewDataPacket builds a data segment of a flow without a pool.
func NewDataPacket(flow uint64, src, dst topology.NodeID, seq int64, payload int, last bool) *Packet {
	return (*PacketPool)(nil).NewDataPacket(flow, src, dst, seq, payload, last)
}

// NewCNP builds a pool-less congestion notification for flow, sent from
// the NP back to the RP (src is the NP's host).
func NewCNP(flow uint64, src, dst topology.NodeID) *Packet {
	return (*PacketPool)(nil).NewCNP(flow, src, dst)
}
