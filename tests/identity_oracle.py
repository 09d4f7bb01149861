"""The independent Fraction oracle for the identity evaluator.

``pairs`` checks an identity over scaled integer tensors in one of
several numeric forms.  The tests compare every form against this
direct evaluation: the bracket tree of each residual term is expanded
over sparse ``Fraction`` coordinate dicts, one tensor entry at a time,
with the Koszul sign of the term's letters.  It reads nothing of the
evaluator but the pair's own tensors.
"""

from fractions import Fraction

from isopairs.supercore import Letter, eval_sign_pairs


def oriented(sides: dict, orientation: int) -> dict:
    """Orientation 2 swaps sides 1 and 2; 0 and 1 keep all."""
    return {l: 3 - s if orientation == 2 and s else s for l, s in sides.items()}


def eval_expr(expr, env: dict, pair, sides: dict) -> dict:
    """Evaluate a bracket tree to a sparse vector; ``env`` maps letters
    to sparse coordinate dicts on their side."""
    if isinstance(expr, Letter):
        return env[expr.name]
    L = eval_expr(expr.left, env, pair, sides)
    R = eval_expr(expr.right, env, pair, sides)
    I = eval_expr(expr.iso, env, pair, sides)
    left = expr.left
    while not isinstance(left, Letter):
        left = left.left
    tensor = pair.m1 if sides[left.name] == 1 else pair.m2
    out: dict = {}
    for i, ci in I.items():
        for l, cl in L.items():
            cil = ci * cl
            for r, cr in R.items():
                comps = tensor.get((i, l, r))
                if comps:
                    c = cil * cr
                    for o, s in comps.items():
                        v = out.get(o, 0) + c * s
                        if v:
                            out[o] = v
                        elif o in out:
                            del out[o]
    return out


def residual_on_vectors(pair, ident, orientation: int, vectors: dict, parities: dict) -> dict:
    """Exact identity residual on arbitrary homogeneous vectors.

    ``vectors`` maps letters to coordinate sequences on their side and
    ``parities`` to the parity bit of each (homogeneous) vector.
    """
    sides = oriented(ident.sides, orientation)
    env = {l: {i: Fraction(c) for i, c in enumerate(v) if c} for l, v in vectors.items()}
    residual: dict = {}
    for t in ident.residual_terms():
        c = t.coeff * eval_sign_pairs(t.sign_pairs, parities)
        for o, s in eval_expr(t.expr, env, pair, sides).items():
            v = residual.get(o, 0) + c * s
            if v:
                residual[o] = v
            elif o in residual:
                del residual[o]
    return residual
