package dynp2p

import "dynp2p/internal/walks"

// Soup exposes the walk soup for advanced introspection.
func (nw *Network) Soup() *walks.Soup { return nw.soup }
