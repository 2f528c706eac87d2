"""The flattened twist sequence, kept as the oracle for a letter's class.

A letter [W]c taken to the power s is the twist sequence
``letter.flatten(s)``, W c^s W^-1 freely reduced, and its image in
Sp(2g, Z) is the product of the transvections of those twists.  The
package never flattens: ``CurveSystem.homology_class_of_letter`` walks
the conjugator once, and ``symplectic.letter_class`` names the first
opaque curve of the conjugator and base.  The tests hold both to the
product and to the first opaque twist named here.
"""

from mcgcalc.errors import UnknownClass


def twist_classes(system, pairs):
    """The (class, sign) factors of a flattened twist sequence."""
    for name, sign in pairs:
        cls = system.class_of(name)
        if cls is None:
            raise UnknownClass(f"curve {name!r} has no declared homology class")
        yield cls, sign
