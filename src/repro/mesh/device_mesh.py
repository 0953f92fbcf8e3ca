"""Named-axis N-D device meshes over a :class:`~repro.comm.world.World`.

:class:`DeviceMesh` lays a world's ranks out over any number of named
axes — HYBRID_SHARD's 2-D ``("replica", "shard")`` mesh and the
``("pp", "dp", "tp")`` training mesh are both instances. Ranks are laid out row-major over ``shape`` in axis order, so the
*last* axis is innermost (adjacent global ranks) — the bandwidth-first
convention of megatron-style launchers. Process groups are extracted
per axis: ``groups("dp")`` returns one :class:`~repro.comm.world.Group`
per coordinate of the *other* axes, each connecting the ranks that vary
only along ``"dp"``.

This module (together with ``comm/world.py`` itself) is the only place
allowed to construct :class:`Group` objects — enforced by
``tools/mesh_discipline_check.py`` — so every collective in the tree
runs over a group that provably came from a mesh.
"""

from __future__ import annotations

import numpy as np

from repro.comm.world import Group, World

__all__ = ["DeviceMesh"]


class DeviceMesh:
    """An N-D arrangement of a world's ranks with named axes.

    Parameters
    ----------
    world:
        The :class:`~repro.comm.world.World` whose ranks are arranged.
        ``prod(shape)`` must equal ``world.size``.
    shape:
        Axis sizes, outermost first.
    axis_names:
        One unique non-empty name per axis (e.g. ``("pp", "dp", "tp")``).
    """

    def __init__(
        self,
        world: World,
        shape: tuple[int, ...],
        axis_names: tuple[str, ...],
        *,
        _grid: np.ndarray | None = None,
    ):
        shape = tuple(int(s) for s in shape)
        axis_names = tuple(axis_names)
        if len(shape) == 0:
            raise ValueError("a mesh needs at least one axis")
        if len(shape) != len(axis_names):
            raise ValueError(
                f"shape {shape} and axis_names {axis_names} disagree on rank"
            )
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"duplicate axis names: {axis_names}")
        for name in axis_names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"axis names must be non-empty strings, got {name!r}")
        for s in shape:
            if s < 1:
                raise ValueError(f"axis sizes must be >= 1, got {shape}")
        total = int(np.prod(shape))
        if _grid is None:
            if total != world.size:
                raise ValueError(
                    f"mesh shape {shape} holds {total} ranks but the world "
                    f"has {world.size}; axis sizes must multiply to the "
                    "world size"
                )
            _grid = np.arange(world.size, dtype=np.int64).reshape(shape)
        else:
            if _grid.shape != shape:
                raise ValueError("internal: grid/shape mismatch")
        self.world = world
        self.shape = shape
        self.axis_names = axis_names
        self._grid = _grid

    # -- introspection ---------------------------------------------------

    @property
    def size(self) -> int:
        """Number of ranks covered by this mesh."""
        return int(self._grid.size)

    @property
    def ranks(self) -> tuple[int, ...]:
        """All covered global ranks, row-major."""
        return tuple(int(r) for r in self._grid.ravel())

    def axis_index(self, axis: str) -> int:
        """Position of ``axis`` in ``axis_names``."""
        try:
            return self.axis_names.index(axis)
        except ValueError:
            raise ValueError(
                f"unknown mesh axis {axis!r}; have {self.axis_names}"
            ) from None

    def axis_size(self, axis: str) -> int:
        """Size of the named axis."""
        return self.shape[self.axis_index(axis)]

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Mesh coordinates of a covered global rank."""
        hits = np.argwhere(self._grid == rank)
        if len(hits) == 0:
            raise ValueError(f"rank {rank} is not covered by this mesh")
        return tuple(int(c) for c in hits[0])

    def rank_at(self, coords: tuple[int, ...]) -> int:
        """Global rank at the given mesh coordinates."""
        if len(coords) != len(self.shape):
            raise ValueError(
                f"expected {len(self.shape)} coordinates, got {coords}"
            )
        return int(self._grid[tuple(coords)])

    # -- group extraction ------------------------------------------------

    def groups(self, axis: str) -> tuple[Group, ...]:
        """Every process group along ``axis``.

        One group per coordinate of the other axes; each group's ranks
        vary only along ``axis``, ordered by their axis coordinate.
        """
        i = self.axis_index(axis)
        moved = np.moveaxis(self._grid, i, -1).reshape(-1, self.shape[i])
        return tuple(
            self.world.new_group(tuple(int(r) for r in row)) for row in moved
        )

    def group_for(self, axis: str, rank: int) -> Group:
        """The ``axis`` group containing ``rank``."""
        for g in self.groups(axis):
            if rank in g:
                return g
        raise ValueError(f"rank {rank} is not covered by this mesh")

    def submesh(self, axes: tuple[str, ...], rank: int = 0) -> DeviceMesh:
        """The sub-grid through ``rank`` spanned by the named axes.

        The other axes are pinned at ``rank``'s coordinates; the result
        is a :class:`DeviceMesh` over the same world covering only the
        selected ranks (its shape no longer multiplies to the world
        size — group extraction still works per remaining axis).
        """
        axes = tuple(axes)
        if len(axes) == 0:
            raise ValueError("submesh needs at least one axis")
        keep = [self.axis_index(a) for a in axes]
        if len(set(keep)) != len(keep):
            raise ValueError(f"duplicate axes in submesh: {axes}")
        coords = self.coords_of(rank)
        index = tuple(
            slice(None) if i in keep else coords[i] for i in range(len(self.shape))
        )
        grid = self._grid[index]
        # numpy keeps surviving axes in original order; transpose them
        # into the requested order.
        remaining = sorted(keep)
        order = [remaining.index(i) for i in keep]
        grid = np.transpose(grid, order) if grid.ndim > 1 else grid
        shape = tuple(self.shape[i] for i in keep)
        return DeviceMesh(self.world, shape, axes, _grid=np.ascontiguousarray(grid))

    def describe(self) -> str:
        """Human-readable form, e.g. ``mesh(pp=2, dp=4, tp=2)``."""
        inner = ", ".join(
            f"{n}={s}" for n, s in zip(self.axis_names, self.shape)
        )
        return f"mesh({inner})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeviceMesh({self.describe()}, world={self.world.size})"
