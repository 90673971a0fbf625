# Simulation-acceptable instance: a request/acknowledge handshake where
# every infinite behavior acknowledges infinitely often, so `[]<>ack` is
# relative-live and the inclusion pre(L) ⊆ pre(L ∩ []<>ack) *holds*.
# `rl_automata::nfa_simulates` proves it by exhibiting an NFA simulation of the
# left prefix automaton inside the right one — no determinization at all.
# Try: rlcheck check examples/systems/filter_sim.ts "[]<>ack" --stats
system
alphabet: req work ack
initial: idle
idle req -> busy
busy work -> busy
busy ack -> idle
