"""Test helpers over machine configurations.

`stack_apply` is S{M}: it rebuilds the computation a machine stack denotes
around a focus, so the subject-reduction tests can type every intermediate
configuration.  `settle` runs the silent steps the test-side semantics share
with the pipeline; what a settled configuration does next is read off its
focus."""

from cbpv_quant.machine import ArgFrame, ToFrame, machine_step
from cbpv_quant.syntax import Apply, EffOp, Proj, SeqTo, is_terminal


def stack_apply(stack, m):
    for frame in reversed(stack):
        if isinstance(frame, ToFrame):
            m = SeqTo(m, frame.binder, frame.body)
        elif isinstance(frame, ArgFrame):
            m = Apply(m, frame.value)
        else:
            m = Proj(m, frame.label)
    return m


def settle(c, max_steps):
    """The silent run from `c`: `c` and every configuration a machine step
    reaches from it, up to the first whose focus is an effect node or a
    terminal under the empty stack, or up to `max_steps` steps."""
    run = [c]
    while len(run) <= max_steps and not isinstance(c.focus, EffOp) and (c.stack or not is_terminal(c.focus)):
        c = machine_step(c)
        run.append(c)
    return run
