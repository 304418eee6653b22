module mccs/bench

go 1.22

require mccs v0.0.0

replace mccs => ../
