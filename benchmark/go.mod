module dynp2p/benchmark

go 1.22

require dynp2p v0.0.0

replace dynp2p => ../
