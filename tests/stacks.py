"""S{M}: rebuild the computation a machine stack denotes around a focus, so
the subject-reduction tests can type every intermediate configuration."""

from cbpv_quant.machine import ArgFrame, ToFrame
from cbpv_quant.syntax import Apply, Proj, SeqTo


def stack_apply(stack, m):
    for frame in reversed(stack):
        if isinstance(frame, ToFrame):
            m = SeqTo(m, frame.binder, frame.body)
        elif isinstance(frame, ArgFrame):
            m = Apply(m, frame.value)
        else:
            m = Proj(m, frame.label)
    return m
