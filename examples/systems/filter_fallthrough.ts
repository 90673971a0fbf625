# Pure fall-through instance: the inclusion pre(L) ⊆ pre(L ∩ []<>a)
# *fails* (after "b.b" the scheduler wedges into the b-only tail), but the
# failure is invisible to every kernel of `rl_core::prefilter_inclusion` —
# letter supports, boundedness, and counts mod k all agree between the two
# sides, because the live component can also absorb any number of bs one
# at a time, and the simulation stage only ever *proves* inclusions. The
# kernels return Unknown on all three stages and the exact core finds the
# order-sensitive doomed prefix "b.b". The needle window (14-deep history
# guess) keeps the materializing core honest at 2^14 subset states.
# Try: rlcheck check examples/systems/filter_fallthrough.ts "[]<>a" --stats
system
alphabet: a b
initial: s0
s0 a -> s0
s0 b -> s1    # a lone b is answered by an a...
s1 a -> s0
s0 b -> d1    # ...unless the scheduler wedges:
d1 a -> s0
d1 b -> d2    # two bs in a row, one final a, then silence
d2 a -> d3
d3 b -> d3
s0 a -> w1    # guess: this a opens the history window
w1 a -> w2
w1 b -> w2
w2 a -> w3
w2 b -> w3
w3 a -> w4
w3 b -> w4
w4 a -> w5
w4 b -> w5
w5 a -> w6
w5 b -> w6
w6 a -> w7
w6 b -> w7
w7 a -> w8
w7 b -> w8
w8 a -> w9
w8 b -> w9
w9 a -> w10
w9 b -> w10
w10 a -> w11
w10 b -> w11
w11 a -> w12
w11 b -> w12
w12 a -> w13
w12 b -> w13
w13 a -> w14
w13 b -> w14
w14 a -> s0
w14 b -> s0
w14 a -> w1
