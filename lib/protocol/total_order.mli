(** Total-order (atomic) broadcast by a fixed sequencer — the multicast
    extension of the paper's closing remark, as a {e general} protocol.

    Each application broadcast obtains a global ticket from the sequencer
    (process 0) with a [toreq]/[togrant] control exchange — two control
    messages per broadcast, independent of the group size — and every
    process delivers groups in ticket order, skipping tickets of its own
    broadcasts (it receives no copy of those). Ticket order extends
    causality (a request caused by a delivery is sequenced after that
    delivery's grant), so the protocol guarantees causal broadcast {e and}
    total order, with the one exception below.

    The copies of one broadcast are separate invoke steps, so a grant can
    arrive between two of them (the schedule explorer reaches this). The
    copies invoked after the grant go out at once with the granted
    ticket, so total order holds on every schedule. Causal broadcast
    does not: if the origin delivers a later ticket before it sends such
    a copy, that delivery happens-before the copy's send, yet every
    process delivers the copy first. The simulator invokes a broadcast's
    copies without an arrival in between, so its runs keep both
    guarantees.

    Total order itself is not a forbidden predicate over happened-before
    (see {!Mo_order.Broadcast_props}); this protocol and the checkers in
    that module extend the framework beyond the paper's specification
    language while reusing its machinery. Use with broadcast workloads
    only (like {!Causal_bss}). *)

val factory : Protocol.factory
