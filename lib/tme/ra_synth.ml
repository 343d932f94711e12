(** Ricart-Agrawala run under a {e synthesized} wrapper term.

    The protocol is byte-for-byte {!Ra_me}'s (same [Ra_core] functor,
    deferred replies); only the registration differs: {!Scenarios}
    registers it with [role = Synthesized] and {!wrapper_term}, so the
    campaign and scenario layer compose it as
    [Harness.On {term; delta}] with this term in place of the
    hand-written [w_refined].  The term below is the one the CEGIS loop
    ([Synth.synthesize] over {!Mcheck.Oracle}) finds for RA — the
    size-minimal certified candidate, which coincides with the paper's
    refined [W_j]; [test_synth] asserts that coincidence, so this
    constant cannot silently drift from what synthesis produces. *)

include Ra_core.Make (struct
  let name = "ra-synth"
  let defer_while_eating = true
end)

let wrapper_term = Graybox.Wrapper.w_refined
