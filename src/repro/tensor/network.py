"""DAG ``Network``: topologically executed layers with named weights.

The network is a directed acyclic graph of layers.  Most candidate
architectures are chains, but the Uno application needs several input
towers merged by a :class:`~repro.tensor.layers.Concatenate` layer, so
nodes may reference multiple predecessors.  Inputs are addressed as
``"input:0"``, ``"input:1"``, ...

Weights are exposed as an *ordered* ``{"layer.param": array}`` mapping
(topological layer order, declaration order within a layer) — the exact
substrate the shape-sequence/transfer machinery and the checkpoint store
operate on.

Backward-pass liveness (:class:`Liveness`) is computed once per built
network and consulted by every :meth:`Network.backward`.  A layer runs
backward only when it or something upstream holds trainable parameters,
and computes an input gradient only for a parent that runs backward — so
the first conv of a chain skips its column-gradient GEMM and scatter.
Input gradients w.r.t. the network inputs are never computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .layers import Concatenate, Layer


@dataclass(frozen=True)
class Liveness:
    """Which backward work a built network's parameter gradients need.

    Per layer, in topological order:

    - ``parents``: parent indices (``-1 - i`` is network input ``i``);
    - ``runs_bwd``: the layer or anything upstream holds trainable
      parameters, so its backward feeds some parameter gradient;
    - ``need_gx``: per parent, whether that parent's input gradient is
      consumed (the parent is a layer with ``runs_bwd``).
    """

    parents: tuple[tuple[int, ...], ...]
    runs_bwd: tuple[bool, ...]
    need_gx: tuple[tuple[bool, ...], ...]


class Network:
    def __init__(self, input_shape, name: str = "network"):
        """``input_shape``: one shape tuple, or a sequence of shape tuples
        for a multi-input network (shapes exclude the batch axis)."""
        if input_shape and isinstance(input_shape[0], (tuple, list)):
            self.input_shapes = tuple(tuple(s) for s in input_shape)
        else:
            self.input_shapes = (tuple(input_shape),)
        self.name = name
        self._layers: list[Layer] = []
        self._inputs_of: dict[str, list[str]] = {}  # layer name -> parent refs
        self._by_name: dict[str, Layer] = {}
        self._output: Optional[str] = None
        self.built = False
        self.liveness: Optional[Liveness] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, layer: Layer,
            inputs: Union[None, str, Sequence[str]] = None) -> Layer:
        """Append ``layer``, wired to ``inputs`` (default: previous layer,
        or ``input:0`` for the first).  Input refs are layer names or
        ``"input:<i>"``."""
        if self.built:
            raise RuntimeError("cannot add layers to a built network")
        if layer.name in self._by_name:
            raise ValueError(f"duplicate layer name {layer.name!r}")
        if inputs is None:
            inputs = [self._layers[-1].name] if self._layers else ["input:0"]
        elif isinstance(inputs, str):
            inputs = [inputs]
        else:
            inputs = list(inputs)
        for ref in inputs:
            if not self._valid_ref(ref):
                raise ValueError(f"unknown input ref {ref!r} for {layer.name}")
        self._layers.append(layer)
        self._by_name[layer.name] = layer
        self._inputs_of[layer.name] = inputs
        self._output = layer.name
        return layer

    def _valid_ref(self, ref: str) -> bool:
        if ref.startswith("input:"):
            return int(ref.split(":", 1)[1]) < len(self.input_shapes)
        return ref in self._by_name

    def build(self, rng=None) -> "Network":
        """Materialise every layer's tensors (topological order = add order,
        which is topological by construction)."""
        if self.built:
            raise RuntimeError("network already built")
        rng = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator) else rng
        shapes: dict[str, tuple] = {
            f"input:{i}": s for i, s in enumerate(self.input_shapes)
        }
        for layer in self._layers:
            parents = self._inputs_of[layer.name]
            in_shapes = [shapes[p] for p in parents]
            if isinstance(layer, Concatenate):
                out = layer.build(in_shapes, rng)
            else:
                if len(in_shapes) != 1:
                    raise ValueError(
                        f"{layer.name}: only Concatenate accepts multiple "
                        f"inputs"
                    )
                out = layer.build(in_shapes[0], rng)
            shapes[layer.name] = out
        self.liveness = self._backward_liveness()
        self.built = True
        return self

    def _backward_liveness(self) -> Liveness:
        """One sweep in topological order: a layer runs backward when it
        holds trained tensors or any layer parent runs backward."""
        trained = {layer.name for _, layer, _ in self.trainable()}
        index = {f"input:{i}": -1 - i for i in range(len(self.input_shapes))}
        parents: list[tuple[int, ...]] = []
        runs_bwd: list[bool] = []
        for li, layer in enumerate(self._layers):
            pis = tuple(index[p] for p in self._inputs_of[layer.name])
            index[layer.name] = li
            parents.append(pis)
            runs_bwd.append(layer.name in trained
                            or any(pi >= 0 and runs_bwd[pi] for pi in pis))
        return Liveness(
            parents=tuple(parents),
            runs_bwd=tuple(runs_bwd),
            need_gx=tuple(tuple(pi >= 0 and runs_bwd[pi] for pi in pis)
                          for pis in parents),
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def forward(self, x, training: bool = False):
        """``x``: one array, or a sequence of arrays (multi-input)."""
        if not self.built:
            raise RuntimeError("network not built")
        if isinstance(x, (list, tuple)):
            acts = {f"input:{i}": a for i, a in enumerate(x)}
        else:
            acts = {"input:0": x}
        out = None
        for layer in self._layers:
            parents = self._inputs_of[layer.name]
            if isinstance(layer, Concatenate):
                out = layer.forward([acts[p] for p in parents],
                                    training=training)
            else:
                out = layer.forward(acts[parents[0]], training=training)
            acts[layer.name] = out
        return out

    predict = forward

    def backward(self, gout) -> None:
        """Backprop from the output gradient and fill each trainable
        layer's ``grads``.

        Only live work runs (see :class:`Liveness`): layers with no
        trainables at or above them are skipped, and a layer whose
        parent is dead is called with ``need_gx=False``.  Nothing is
        returned — no caller reads gradients w.r.t. the network inputs,
        so they are never computed."""
        live = self.liveness
        pending: dict[str, np.ndarray] = {self._output: gout}
        for li in range(len(self._layers) - 1, -1, -1):
            if not live.runs_bwd[li]:
                continue
            layer = self._layers[li]
            g = pending.pop(layer.name, None)
            if g is None:
                continue
            need = live.need_gx[li]
            if isinstance(layer, Concatenate):
                gxs = layer.backward(g)
            else:
                gxs = [layer.backward(g, need_gx=need[0])]
            for parent, live_parent, gp in zip(self._inputs_of[layer.name],
                                               need, gxs):
                if not live_parent:
                    continue
                if parent in pending:
                    pending[parent] = pending[parent] + gp
                else:
                    pending[parent] = gp

    # ------------------------------------------------------------------
    # weights / introspection
    # ------------------------------------------------------------------
    @property
    def layers(self) -> list[Layer]:
        return list(self._layers)

    def parameterized_layers(self) -> list[Layer]:
        return [l for l in self._layers if l.params]

    def get_weights(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Ordered ``{"layer.param": array}`` — copies by default, safe
        to mutate.  ``copy=False`` returns the live parameter arrays
        (zero-copy): views of the shared store when the network is bound
        to one via :meth:`bind_weights`."""
        out: dict[str, np.ndarray] = {}
        for layer in self._layers:
            for pname, arr in layer.params.items():
                out[f"{layer.name}.{pname}"] = arr.copy() if copy else arr
        return out

    def set_weights(self, weights: dict[str, np.ndarray],
                    strict: bool = True) -> None:
        names = set()
        for layer in self._layers:
            for pname in layer.params:
                names.add(f"{layer.name}.{pname}")
        for key, arr in weights.items():
            if key not in names:
                if strict:
                    raise KeyError(f"no tensor named {key!r} in {self.name}")
                continue
            lname, pname = key.rsplit(".", 1)
            target = self._by_name[lname].params[pname]
            if target.shape != arr.shape:
                raise ValueError(
                    f"{key}: shape mismatch {arr.shape} vs {target.shape}"
                )
            self._by_name[lname].params[pname] = (
                np.asarray(arr, dtype=target.dtype).copy()
            )

    def bind_weights(self, weights: dict[str, np.ndarray],
                     strict: bool = True) -> None:
        """Zero-copy re-binding: point named parameters at the *given*
        arrays without copying.  The layer then trains through them —
        in-place optimizer steps and batch-norm running-stat updates
        write straight through to the arrays' base storage (this is the
        substrate of supernet weight entanglement; see
        ``repro.transfer.supernet``).  Arrays must match the current
        tensor's shape and dtype exactly and be writable."""
        names = set()
        for layer in self._layers:
            for pname in layer.params:
                names.add(f"{layer.name}.{pname}")
        for key, arr in weights.items():
            if key not in names:
                if strict:
                    raise KeyError(f"no tensor named {key!r} in {self.name}")
                continue
            if not isinstance(arr, np.ndarray):
                raise TypeError(f"{key}: bind_weights needs ndarrays, "
                                f"got {type(arr).__name__}")
            lname, pname = key.rsplit(".", 1)
            target = self._by_name[lname].params[pname]
            if target.shape != arr.shape:
                raise ValueError(
                    f"{key}: shape mismatch {arr.shape} vs {target.shape}"
                )
            if target.dtype != arr.dtype:
                raise ValueError(
                    f"{key}: dtype mismatch {arr.dtype} vs {target.dtype}"
                )
            if not arr.flags.writeable:
                raise ValueError(f"{key}: bound array must be writable "
                                 f"(training updates it in place)")
            self._by_name[lname].params[pname] = arr

    def num_parameters(self) -> int:
        return sum(l.num_parameters for l in self._layers)

    def trainable(self) -> Iterable[tuple[str, Layer, str]]:
        """Yield (tensor_name, layer, param_name) for trained tensors."""
        for layer in self._layers:
            trainable = getattr(layer, "TRAINABLE", None)
            for pname in layer.params:
                if trainable is not None and pname not in trainable:
                    continue
                yield f"{layer.name}.{pname}", layer, pname

    def summary(self) -> str:
        lines = [f"Network {self.name!r} — inputs {self.input_shapes}"]
        for layer in self._layers:
            lines.append(
                f"  {layer.name:<24} {type(layer).__name__:<12} "
                f"out={layer.output_shape} params={layer.num_parameters}"
            )
        lines.append(f"  total parameters: {self.num_parameters()}")
        return "\n".join(lines)

    def __repr__(self):
        state = "built" if self.built else "unbuilt"
        return (f"<Network {self.name} {state}: {len(self._layers)} layers, "
                f"{len(self.input_shapes)} input(s)>")
